"""Batched parallel query serving over a process pool.

CPython's GIL rules out thread-level parallelism for the search
kernels, so throughput comes from processes.  The expensive state — the
frozen graph, the landmark index, the warmed prepared-category cache —
is shipped to each worker **once**, by forking after it is fully
materialised in the parent (copy-on-write, no pickling of the graph),
and only the small :class:`BatchQuery` / ``QueryResult`` objects cross
the process boundary per query.

Guarantees:

* results come back **in submission order**, regardless of which
  worker answered which query;
* answers are identical to sequential solving — workers run exactly
  the per-query code path of :meth:`KPJSolver.top_k` (per-query
  ``SearchStats`` cache counters reflect each worker's own cache);
* on platforms without the ``fork`` start method (Windows), or for
  ``workers <= 1``, the batch degrades gracefully to sequential
  in-process execution.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from numbers import Integral, Real
from time import perf_counter
from typing import Mapping, Sequence

from repro.exceptions import QueryError
from repro.obs.metrics import LOADTEST_LATENCY_BUCKETS_MS, MetricsRegistry
from repro.obs.tracing import SpanTracer
from repro.server.epoch import service_epoch

__all__ = ["BatchQuery", "run_batch"]

#: Module-global solver inherited by forked workers (set around the
#: pool's lifetime; never used by the sequential path).
_WORKER_SOLVER = None

#: This process's worker index (0..workers-1), assigned by
#: :func:`_init_worker` at pool start; ``None`` in the parent and on
#: the sequential path.
_WORKER_INDEX = None


def _init_worker(counter) -> None:
    """Pool initializer: claim the next worker index atomically.

    ``multiprocessing.Pool`` does not expose a worker ordinal, so the
    parent passes a shared counter and each worker takes a ticket
    under its lock.  The index keys the per-worker metric tags that
    make scheduling skew visible in ``kpj batch --metrics``.
    """
    global _WORKER_INDEX
    with counter.get_lock():
        _WORKER_INDEX = int(counter.value)
        counter.value += 1


@dataclass
class _WorkerFailure:
    """A query that raised, shipped back as a value instead of a raise.

    Letting the exception propagate through ``imap`` would abort the
    whole result stream and silently drop every other worker's
    stats/metrics/trace snapshots; wrapping it lets
    :func:`run_batch` merge the successful results first and re-raise
    after (the failure still fails the batch — nothing is swallowed).
    """

    error: Exception
    index: int | None = None


@dataclass(frozen=True)
class BatchQuery:
    """One KPJ/KSP query of a batch workload.

    ``category`` and ``destinations`` are mutually exclusive, exactly
    as in :meth:`KPJSolver.top_k`.
    """

    source: int
    category: str | None = None
    destinations: tuple[int, ...] | None = None
    k: int = 10
    algorithm: str = "iter-bound-spti"
    alpha: float = 1.1


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_types(query: BatchQuery) -> BatchQuery:
    """Reject a wrongly typed field with a ``QueryError`` naming it.

    Range checks stay with the solver; this only makes malformed input
    (a JSON string where a number belongs, a list as a category) fail
    at admission instead of as a ``TypeError`` inside a worker.
    """
    if not _is_int(query.source):
        problem = "source must be an integer"
    elif query.category is not None and not isinstance(query.category, str):
        problem = "category must be a string"
    elif query.destinations is not None and not all(
        map(_is_int, query.destinations)
    ):
        problem = "destinations must be integers"
    elif not _is_int(query.k):
        problem = "k must be an integer"
    elif not isinstance(query.algorithm, str):
        problem = "algorithm must be a string"
    elif not isinstance(query.alpha, Real) or isinstance(query.alpha, bool):
        problem = "alpha must be a number"
    else:
        return query
    raise QueryError(f"malformed batch query {query!r}: {problem}")


def _coerce(query) -> BatchQuery:
    """Accept :class:`BatchQuery` instances or plain mappings."""
    if isinstance(query, BatchQuery):
        return _check_types(query)
    if isinstance(query, Mapping):
        try:
            query = dict(query)
            if "destinations" in query and query["destinations"] is not None:
                query["destinations"] = tuple(query["destinations"])
            query = BatchQuery(**query)
        except TypeError as exc:
            raise QueryError(f"malformed batch query {query!r}: {exc}") from None
        return _check_types(query)
    raise QueryError(
        f"batch queries must be BatchQuery or mappings, got {type(query).__name__}"
    )


def _execute(solver, query: BatchQuery):
    """Answer one batch query against a solver."""
    return solver.top_k(
        query.source,
        category=query.category,
        destinations=query.destinations,
        k=query.k,
        algorithm=query.algorithm,
        alpha=query.alpha,
    )


def _worker_execute(query: BatchQuery):
    """Pool worker body: run one query against the forked solver.

    Successful results with a metrics snapshot are tagged with this
    worker's ``worker_<i>_queries`` counter (merging the snapshots
    sums the tags, so the parent-side registry shows how many queries
    each worker actually answered).  Exceptions come back as
    :class:`_WorkerFailure` values so sibling snapshots survive.
    """
    started = perf_counter()
    try:
        result = _execute(_WORKER_SOLVER, query)
    except Exception as exc:
        return _WorkerFailure(error=exc, index=_WORKER_INDEX)
    # The worker's half of the serving-side timing: when this query was
    # actually picked up.  perf_counter is one machine-wide monotonic
    # clock on fork platforms, so the parent can subtract its own
    # enqueue timestamp to get the queue wait.
    result.timing = {"started_at_s": started}
    if result.metrics is not None and _WORKER_INDEX is not None:
        counters = result.metrics["counters"]
        key = f"worker_{_WORKER_INDEX}_queries"
        counters[key] = counters.get(key, 0) + 1
    return result


def _warm_cache(solver, queries: Sequence[BatchQuery]) -> None:
    """Materialise per-destination-set artefacts before forking.

    Every distinct destination set of the workload gets its prepared
    entry (bounds, ``G_Q`` overlay, CSR export under the flat kernel)
    built in the parent, so each worker inherits a hot cache instead
    of rebuilding it ``workers`` times.  Invalid queries are left for
    the workers to report in order.
    """
    seen: set = set()
    for q in queries:
        key = (q.category, q.destinations)
        if key in seen:
            continue
        seen.add(key)
        try:
            prepared = solver.prepare(
                category=q.category, destinations=q.destinations
            )
            prepared.csr_overlay()
        except QueryError:
            continue


def _warm_with_metrics(solver, batch: Sequence[BatchQuery], metrics) -> None:
    """Run the pre-fork warm-up, attributing its time to ``warmup``.

    The solver's registry is swapped for a scratch one for the
    duration, so the warm-up's cache counters and gauges are captured
    but its wall time lands under ``warmup`` — never under any
    query's ``prepare`` — keeping sequential and pooled batch totals
    comparable after the warm-up phase is set aside.
    """
    warm_reg = MetricsRegistry()
    saved = solver.metrics
    solver.metrics = warm_reg
    start = perf_counter()
    try:
        _warm_cache(solver, batch)
    finally:
        solver.metrics = saved
    warm_reg.observe_phase("warmup", perf_counter() - start)
    # prepare() already timed itself inside the warm-up interval;
    # dropping it avoids double-counted wall time.
    warm_reg.phases.pop("prepare", None)
    if saved is not None:
        saved.merge(warm_reg)
    if metrics is not None and metrics is not saved:
        metrics.merge(warm_reg)


def run_batch(
    solver, queries: Sequence, workers: int = 1, stats=None, metrics=None,
    tracer=None, engine: str = "pool", service=None,
) -> list:
    """Answer ``queries`` with ``solver``, sharded over ``workers``.

    Returns one :class:`~repro.core.result.QueryResult` per query, in
    submission order.  ``workers <= 1`` (or a single query, or a
    platform without ``fork``) runs sequentially in-process; larger
    values fork a pool after warming the solver's prepared-category
    cache for the workload's destination sets.

    When a :class:`~repro.core.stats.SearchStats` is passed as
    ``stats`` it receives the **aggregate** of the whole batch: every
    per-query counter merged across results (workers included — the
    counters ride back with each ``QueryResult``), plus the parent's
    prepared-cache activity from the pre-fork warm-up, which belongs
    to no individual query and would otherwise be invisible.

    When a :class:`~repro.obs.metrics.MetricsRegistry` is passed as
    ``metrics`` the same aggregation applies to phase timers,
    counters, gauges, and histograms: each result carries its
    per-query snapshot (a plain dict, so it crosses the fork boundary
    like the stats do) and all snapshots are merged here, plus the
    warm-up under the dedicated ``warmup`` phase.  If the solver has
    no registry of its own, one is installed for the duration of the
    batch so the snapshots exist, and removed afterwards.

    When a :class:`~repro.obs.tracing.SpanTracer` is passed as
    ``tracer`` the whole call is recorded as one ``batch`` span, the
    pre-fork warm-up as a ``warmup`` phase span under it, and every
    sampled query's span snapshot — ``QueryResult.trace``, whether it
    was recorded in-process or shipped back from a worker — is
    re-rooted under the batch span with the recording process's
    ``pid`` intact.  ``perf_counter`` is one machine-wide monotonic
    clock on the platforms that can fork, so parent and worker spans
    share a timeline (the pool test asserts no timestamp inversions).
    If the solver has no tracer of its own, one (with the same
    sampling stride) is installed for the duration and removed after.

    Every completed result additionally carries serving-side timing
    (``QueryResult.timing``): ``enqueued_at_s``/``started_at_s``
    monotonic offsets from the process-wide
    :func:`~repro.server.epoch.service_epoch` and the derived
    ``queue_wait_s``, so queue wait is attributable separately from
    the service time post-hoc.  Offsets used to be rebased per batch,
    which reset them to ~0 on every call and made successive batches'
    (and the service tier's) timing histograms incomparable; one
    shared epoch keeps every serving surface on the same timeline.
    Workers stamp the start half; the parent merges the enqueue half
    after results cross the fork boundary — on the failure path too,
    like the snapshot merges below.  When ``metrics`` is passed, the
    queue waits are also recorded into a log-spaced ``queue_wait_ms``
    histogram.

    ``engine`` selects the serving tier: ``"pool"`` (default) is the
    fork-per-batch pool described above; ``"service"`` routes the
    batch through the resident-worker tier
    (:func:`repro.server.service.run_service_batch`) — either a
    private :class:`~repro.server.service.QueryService` spun for the
    call, or the long-lived one passed as ``service``.

    Pooled results are additionally tagged per worker: each query
    snapshot carries a ``worker_<i>_queries`` counter, so the merged
    registry shows how the workload actually spread across workers
    (scheduling skew is invisible in aggregate timers alone).  A query
    that raises still fails the batch with its original exception, but
    only **after** the successful queries' stats/metrics/trace
    snapshots have been merged — previously a single bad query dropped
    every sibling's observability data on the floor.
    """
    global _WORKER_SOLVER
    if engine == "service" or service is not None:
        from repro.server.service import run_service_batch

        return run_service_batch(
            solver, queries, workers=workers, stats=stats, metrics=metrics,
            tracer=tracer, service=service,
        )
    if engine != "pool":
        raise QueryError(
            f"unknown batch engine {engine!r}; choose 'pool' or 'service'"
        )
    batch = [_coerce(q) for q in queries]
    if not batch:
        return []
    workers = min(int(workers), len(batch))
    epoch = service_epoch()  # timing offsets are relative to it
    t_base = perf_counter()
    t_enqueue: float | None = None
    own_metrics = metrics is not None and solver.metrics is None
    if own_metrics:
        # Must be installed before the fork so workers inherit it and
        # produce per-query snapshots.
        solver.metrics = MetricsRegistry()
    own_tracer = tracer is not None and solver.tracer is None
    if own_tracer:
        solver.tracer = SpanTracer(
            capacity=tracer.capacity, sample_every=tracer.sample_every
        )
    batch_span = (
        tracer.begin("batch", cat="batch", queries=len(batch), workers=workers)
        if tracer is not None
        else None
    )
    try:
        results: list | None = None
        if workers > 1:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                ctx = None
            if ctx is not None:
                before = solver.cache_info()
                t_warm = perf_counter()
                if solver.metrics is not None or metrics is not None:
                    _warm_with_metrics(solver, batch, metrics)
                else:
                    _warm_cache(solver, batch)
                if tracer is not None:
                    tracer.add("warmup", t_warm, perf_counter(), cat="phase")
                after = solver.cache_info()
                if stats is not None:
                    stats.prepared_cache_hits += after["hits"] - before["hits"]
                    stats.prepared_cache_misses += after["misses"] - before["misses"]
                _WORKER_SOLVER = solver
                try:
                    with ctx.Pool(
                        processes=workers,
                        initializer=_init_worker,
                        initargs=(ctx.Value("i", 0),),
                    ) as pool:
                        chunk = max(1, len(batch) // (4 * workers))
                        # Every query of the batch is enqueued when
                        # imap hands the iterable to the pool; workers
                        # stamp started_at_s when they pick one up.
                        t_enqueue = perf_counter()
                        results = list(
                            pool.imap(_worker_execute, batch, chunksize=chunk)
                        )
                finally:
                    _WORKER_SOLVER = None
        if results is None:
            results = []
            for query in batch:
                enqueued = perf_counter()
                try:
                    result = _execute(solver, query)
                except Exception as exc:
                    # Preserve the completed queries' snapshots; the
                    # merge below runs before the failure re-raises.
                    results.append(_WorkerFailure(error=exc))
                    break
                # Sequential: the query starts the instant it is
                # dequeued, so the queue wait is zero by construction.
                result.timing = {
                    "enqueued_at_s": enqueued, "started_at_s": enqueued,
                }
                results.append(result)
        # A failed query must still fail the batch — but only after
        # the successful results' observability snapshots are merged,
        # so one bad query no longer blinds the whole batch.
        failure = next((r for r in results if isinstance(r, _WorkerFailure)), None)
        completed = [r for r in results if not isinstance(r, _WorkerFailure)]
        # Merge the parent's enqueue half into each completed result's
        # timing and rebase onto the process-wide serving epoch — on
        # the failure path too, exactly like the snapshot merges below:
        # a bad query must not discard its siblings' queue-wait
        # attribution.  The epoch (not the batch start) is the origin
        # so offsets from successive batches and from the resident
        # service tier share one timeline.
        for result in completed:
            timing = dict(result.timing or {})
            enqueued = timing.get("enqueued_at_s")
            if enqueued is None:
                enqueued = t_enqueue if t_enqueue is not None else t_base
            started = timing.get("started_at_s", enqueued)
            queue_wait = max(0.0, started - enqueued)
            result.timing = {
                "enqueued_at_s": enqueued - epoch,
                "started_at_s": started - epoch,
                "queue_wait_s": queue_wait,
            }
            if metrics is not None:
                metrics.observe(
                    "queue_wait_ms",
                    queue_wait * 1e3,
                    buckets=LOADTEST_LATENCY_BUCKETS_MS,
                )
        if stats is not None:
            for result in completed:
                stats.merge(result.stats)
        if metrics is not None:
            for result in completed:
                if result.metrics is not None:
                    metrics.merge(result.metrics)
        if tracer is not None:
            # Re-root every query tree (local or worker-recorded)
            # under the batch span *before* ending it, so the batch
            # span's interval covers all of its children.
            for result in completed:
                if result.trace is not None:
                    tracer.absorb(result.trace, parent=batch_span)
            tracer.end(batch_span)
            batch_span = None
        if failure is not None:
            raise failure.error
        results = completed
    finally:
        if own_metrics:
            solver.metrics = None
        if own_tracer:
            solver.tracer = None
        if batch_span is not None:
            tracer.end(batch_span)  # error path: close the batch span
    return results
