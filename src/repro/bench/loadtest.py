"""Open-loop load-test replay, aggregation, and the SLO gate.

:func:`replay_workload` takes a frozen
:class:`~repro.bench.workload.WorkloadSpec`, expands it into its
deterministic arrival schedule, and replays it against a serving
target: the dispatcher sleeps until each arrival's scheduled offset
and submits the query **regardless of completions** (open loop), so a
system that cannot keep up accumulates visible queue wait instead of
quietly throttling the offered load.

Three targets share that dispatcher:

* ``target="pool"`` (default) — the same forked processes
  :func:`repro.server.pool.run_batch` uses; each query comes back
  with its metrics snapshot and a worker-stamped ``started_at_s``,
  and the dispatcher records its own enqueue offset per arrival, so
  queue wait and service time are attributed separately without any
  new timers on the query path;
* ``target="service"`` — the resident-worker tier
  (:class:`repro.server.service.QueryService`), spun in-process for
  the replay: warm-up (shared-memory export, category prewarm)
  is paid **once at service start** and lands in the entry's
  one-time ``warmup`` phase, so ``service_ms`` reflects steady-state
  serving;
* ``url=...`` — an already-running ``kpj serve`` endpoint, replayed
  over HTTP (the entry still records ``target: service``); phase
  attribution comes from the server's ``/status`` report, which
  covers the server's lifetime, not just this replay.

Entries record their ``target``, and :func:`baseline_for` matches on
it, so pool and service trajectories gate independently.

Collection rides the existing observability layers: per-query latency
from ``QueryResult.elapsed_ms``, per-phase wall clock from the merged
:class:`~repro.obs.metrics.MetricsRegistry` snapshots, per-phase work
counters from ``SearchStats`` via
:func:`repro.bench.trajectory.accumulate_work`.  Tail behaviour is
summarised into log-spaced histograms
(:data:`~repro.obs.metrics.LOADTEST_LATENCY_BUCKETS_MS`) so
p50/p95/p99/p99.9 stay in finite buckets even when queueing pushes
the tail far beyond any single query's service time.

The result is one schema-versioned ``BENCH_loadtest.json`` entry;
:func:`evaluate_gate` enforces the spec's declared SLO (absolute p99
and throughput floors, error budget) plus a regression bound against
the pinned baseline entry with the identical spec.  Queries that
raise are **counted, not fatal** — a serving benchmark reports its
error rate and lets the gate's error budget decide.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter, sleep
from typing import Mapping, Sequence

from repro.bench.trajectory import accumulate_work
from repro.bench.workload import WorkloadSpec, generate_schedule, schedule_digest
from repro.exceptions import QueryError
from repro.obs.metrics import (
    LOADTEST_LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "LOADTEST_SCHEMA_VERSION",
    "replay_workload",
    "evaluate_gate",
    "baseline_for",
    "load_entries",
    "render_entry_summary",
]

#: Version stamped into every ``BENCH_loadtest.json`` entry; bump on
#: any change to the entry's fields or their meaning.
LOADTEST_SCHEMA_VERSION = 1

#: The tail quantiles every latency block reports.
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _summarise(hist: Histogram) -> dict:
    """One latency block: count/mean + the tail quantiles (JSON-safe)."""
    out: dict = {
        "count": hist.total,
        "mean": hist.sum / hist.total if hist.total else None,
    }
    for name, q in _QUANTILES:
        value = hist.quantile(q) if hist.total else math.nan
        out[name] = None if math.isnan(value) else value
    return out


def _solver_for(spec: WorkloadSpec):
    from repro.core.kpj import KPJSolver
    from repro.datasets.registry import road_network

    dataset = road_network(spec.dataset)
    missing = [
        c for c in spec.categories if not dataset.categories.has_category(c)
    ]
    if missing:
        raise QueryError(
            f"dataset {spec.dataset!r} has no categor"
            f"{'y' if len(missing) == 1 else 'ies'} "
            f"{', '.join(repr(c) for c in missing)}"
        )
    solver = KPJSolver(
        dataset.graph,
        dataset.categories,
        landmarks=spec.landmarks,
        kernel=spec.kernel,
    )
    return dataset, solver


def _replay_pool(spec, solver, schedule, queries, agg):
    """The fork-per-batch target (the original replay engine)."""
    from repro.server.pool import (
        _execute,
        _warm_cache,
        _WorkerFailure,
        _worker_execute,
    )
    from repro.server import pool as pool_mod

    # Per-query snapshots need a registry attached before the fork;
    # the parent merges each result's snapshot into ``agg`` uniformly
    # (pooled or not), so the solver's own registry is never read.
    solver.metrics = MetricsRegistry()
    t_warm = perf_counter()
    _warm_cache(solver, queries)
    agg.observe_phase("warmup", perf_counter() - t_warm)

    ctx = None
    if spec.workers > 1:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = None

    raws: list[tuple] = []  # (arrival, enqueued_abs, result-or-failure)
    t0 = perf_counter()
    if ctx is not None:
        pool_mod._WORKER_SOLVER = solver
        try:
            with ctx.Pool(
                processes=spec.workers,
                initializer=pool_mod._init_worker,
                initargs=(ctx.Value("i", 0),),
            ) as pool:
                t0 = perf_counter()
                pending = []
                for arrival, query in zip(schedule, queries):
                    delay = arrival.offset_s - (perf_counter() - t0)
                    if delay > 0:
                        sleep(delay)
                    enq = perf_counter()
                    pending.append(
                        (arrival, enq, pool.apply_async(_worker_execute, (query,)))
                    )
                raws = [(a, enq, h.get()) for a, enq, h in pending]
        finally:
            pool_mod._WORKER_SOLVER = None
    else:
        # Single-worker (or fork-less) replay: the dispatcher itself
        # is the one worker.  Arrivals stay open-loop — a query that
        # arrives while the previous one is still running starts late,
        # and that lateness *is* its queue wait.
        t0 = perf_counter()
        for arrival, query in zip(schedule, queries):
            delay = arrival.offset_s - (perf_counter() - t0)
            if delay > 0:
                sleep(delay)
            enq = perf_counter()
            try:
                result = _execute(solver, query)
            except Exception as exc:
                raws.append((arrival, enq, _WorkerFailure(error=exc)))
                continue
            result.timing = {"started_at_s": enq}
            raws.append((arrival, enq, result))
    makespan = perf_counter() - t0
    solver.metrics = None
    return raws, makespan


def _replay_service(spec, solver, schedule, queries, agg):
    """The resident-worker target: one long-lived service for the
    whole replay, warm-up paid once at start."""
    from repro.server.pool import _WorkerFailure
    from repro.server.service import QueryService

    service = QueryService(
        solver,
        workers=spec.workers,
        # The replay is open-loop by design — admission shedding would
        # turn offered-load pressure into errors, which is the serve
        # path's policy, not the benchmark's.  Bound high enough that
        # every arrival is admitted.
        max_pending=len(schedule) + spec.workers + 1,
        prewarm=spec.categories,
    )
    service.start()
    try:
        t0 = perf_counter()
        pending = []
        for arrival, query in zip(schedule, queries):
            delay = arrival.offset_s - (perf_counter() - t0)
            if delay > 0:
                sleep(delay)
            enq = perf_counter()
            pending.append((arrival, enq, service.submit(query)))
        raws = []
        for arrival, enq, future in pending:
            try:
                raws.append((arrival, enq, future.result()))
            except Exception as exc:
                raws.append((arrival, enq, _WorkerFailure(error=exc)))
        makespan = perf_counter() - t0
    finally:
        service.shutdown()
    # The service registry holds the one-time ``warmup`` phase, every
    # per-query snapshot, and the service counters/histograms.
    agg.merge(service.metrics)
    return raws, makespan


def _http_query(url: str, payload: dict, timeout: float):
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url.rstrip("/") + "/query",
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8", "replace")
        try:
            message = json.loads(body).get("error", body)
        except (json.JSONDecodeError, AttributeError):
            message = body
        raise QueryError(f"HTTP {exc.code}: {message}") from None
    except (urllib.error.URLError, OSError) as exc:
        raise QueryError(f"service unreachable at {url!r}: {exc}") from None


def _replay_http(spec, url, schedule, queries, agg):
    """Replay against a running ``kpj serve`` endpoint over HTTP."""
    from concurrent.futures import ThreadPoolExecutor
    from types import SimpleNamespace

    from repro.core.stats import SearchStats
    from repro.server.pool import _WorkerFailure

    raws: list[tuple] = []
    timeout = 120.0
    with ThreadPoolExecutor(
        max_workers=min(64, max(4, spec.workers * 4))
    ) as executor:
        t0 = perf_counter()
        pending = []
        for arrival, query in zip(schedule, queries):
            delay = arrival.offset_s - (perf_counter() - t0)
            if delay > 0:
                sleep(delay)
            enq = perf_counter()
            payload = {
                "source": query.source, "k": query.k,
                "algorithm": query.algorithm, "alpha": query.alpha,
            }
            if query.category is not None:
                payload["category"] = query.category
            if query.destinations is not None:
                payload["destinations"] = list(query.destinations)
            pending.append(
                (arrival, enq, executor.submit(_http_query, url, payload, timeout))
            )
        for arrival, enq, future in pending:
            try:
                body = future.result()
            except Exception as exc:
                raws.append((arrival, enq, _WorkerFailure(error=exc)))
                continue
            raws.append((
                arrival,
                enq,
                SimpleNamespace(
                    timing=body.get("timing") or {},
                    elapsed_ms=float(body.get("elapsed_ms", 0.0)),
                    stats=SearchStats(**(body.get("stats") or {})),
                    metrics=body.get("metrics"),
                ),
            ))
        makespan = perf_counter() - t0
    # Phase attribution lives server-side; fold in the /status report
    # (lifetime totals — documented caveat for long-running servers).
    try:
        import urllib.request

        with urllib.request.urlopen(
            url.rstrip("/") + "/status", timeout=10
        ) as response:
            status = json.loads(response.read().decode("utf-8"))
        for phase, block in (status["metrics"].get("phases") or {}).items():
            agg.observe_phase(
                phase, block.get("seconds", 0.0), calls=block.get("calls", 1)
            )
    except Exception:  # pragma: no cover - status endpoint unreachable
        pass
    return raws, makespan


def replay_workload(
    spec: WorkloadSpec, progress=None, target: str = "pool",
    url: str | None = None,
) -> dict:
    """Replay ``spec`` open-loop and return one trajectory entry.

    ``target`` picks the serving tier (``"pool"`` or ``"service"``);
    passing ``url`` replays over HTTP against a running ``kpj serve``
    (and implies ``target="service"``).  Raises
    :class:`~repro.exceptions.QueryError` on spec/dataset mismatches
    (unknown category).  Individual query failures during the replay
    are counted into the entry's ``errors`` block instead of aborting
    — the SLO gate's error budget decides whether they fail the run.
    """
    from repro.server.pool import BatchQuery, _WorkerFailure

    if url is not None:
        target = "service"
    if target not in ("pool", "service"):
        raise QueryError(
            f"unknown loadtest target {target!r}; choose 'pool' or 'service'"
        )
    if url is not None:
        dataset_n = None
        from repro.datasets.registry import road_network

        dataset_n = road_network(spec.dataset).n
        solver = None
        schedule = generate_schedule(spec, dataset_n)
    else:
        dataset, solver = _solver_for(spec)
        schedule = generate_schedule(spec, dataset.n)
    if progress is not None:
        where = url if url is not None else target
        progress(
            f"replaying {spec.name!r}: {len(schedule)} arrivals at "
            f"{spec.target_qps:g} qps over {spec.workers} worker(s) "
            f"[{where}]"
        )
    queries = [
        BatchQuery(
            source=a.source, category=a.category, k=a.k,
            algorithm=spec.algorithm, alpha=spec.alpha,
        )
        for a in schedule
    ]
    agg = MetricsRegistry()
    if url is not None:
        raws, makespan = _replay_http(spec, url, schedule, queries, agg)
    elif target == "service":
        raws, makespan = _replay_service(spec, solver, schedule, queries, agg)
    else:
        raws, makespan = _replay_pool(spec, solver, schedule, queries, agg)

    latency = Histogram(LOADTEST_LATENCY_BUCKETS_MS)
    queue_wait = Histogram(LOADTEST_LATENCY_BUCKETS_MS)
    service = Histogram(LOADTEST_LATENCY_BUCKETS_MS)
    work: dict = {}
    errors: list[dict] = []
    service_total_s = 0.0
    for arrival, enq, raw in raws:
        if isinstance(raw, _WorkerFailure):
            errors.append({"index": arrival.index, "error": str(raw.error)})
            continue
        timing = raw.timing or {}
        if "queue_wait_s" in timing:
            # Service/HTTP results arrive with the wait already derived
            # (their ``*_at_s`` offsets are epoch-rebased, not raw
            # ``perf_counter`` readings comparable to ``enq``).
            qw_ms = max(0.0, timing["queue_wait_s"]) * 1e3
        else:
            started = timing.get("started_at_s", enq)
            qw_ms = max(0.0, started - enq) * 1e3
        svc_ms = raw.elapsed_ms
        queue_wait.observe(qw_ms)
        service.observe(svc_ms)
        latency.observe(qw_ms + svc_ms)
        service_total_s += svc_ms / 1e3
        accumulate_work(work, raw.stats)
        if raw.metrics is not None:
            agg.merge(raw.metrics)
    completed = latency.total

    report = agg.report()
    entry = {
        "schema_version": LOADTEST_SCHEMA_VERSION,
        "sha": _git_sha(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "spec": spec.as_dict(),
        "target": target,
        "schedule_sha": schedule_digest(schedule),
        "queries": len(schedule),
        "completed": completed,
        "errors": {"count": len(errors), "samples": errors[:5]},
        "duration_s": makespan,
        "target_qps": spec.target_qps,
        "achieved_qps": completed / makespan if makespan > 0 else 0.0,
        "occupancy": (
            service_total_s / (spec.workers * makespan) if makespan > 0 else 0.0
        ),
        "latency_ms": _summarise(latency),
        "queue_wait_ms": _summarise(queue_wait),
        "service_ms": _summarise(service),
        "phases": report["phases"],
        "work": work,
    }
    if url is not None:
        entry["url"] = url
    return entry


def baseline_for(
    entries: Sequence[Mapping], spec_dict: Mapping, target: str = "pool"
) -> dict | None:
    """The latest entry recorded under exactly ``spec_dict`` for
    ``target``.

    Entries from before targets existed carry no ``target`` field and
    are treated as ``"pool"`` — the only tier that produced them — so
    pool and service trajectories gate against their own baselines.
    """
    for entry in reversed(list(entries)):
        if (
            entry.get("spec") == spec_dict
            and entry.get("target", "pool") == target
        ):
            return dict(entry)
    return None


def load_entries(path: str) -> list[dict]:
    """Read a ``BENCH_loadtest.json`` trajectory (missing file → ``[]``)."""
    p = Path(path)
    if not p.exists():
        return []
    text = p.read_text()
    if not text.strip():
        return []
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QueryError(f"malformed trajectory {path!r}: {exc}") from None
    if not isinstance(entries, list):
        raise QueryError(f"trajectory {path!r} is not a list of entries")
    return entries


def evaluate_gate(
    entry: Mapping, spec: WorkloadSpec, baseline: Mapping | None = None
) -> list[str]:
    """SLO gate: spec bounds plus baseline regression.  Returns failures.

    Absolute bounds come from the spec (``slo.p99_ms``,
    ``slo.min_qps``, ``slo.max_error_rate``); when a ``baseline``
    entry with the identical spec is supplied and the spec declares a
    ``regression_factor``, the candidate's p99 may not exceed
    ``baseline_p99 × factor`` and its achieved QPS may not fall below
    ``baseline_qps / factor``.
    """
    failures: list[str] = []
    slo = spec.slo
    p99 = (entry.get("latency_ms") or {}).get("p99")
    achieved = entry.get("achieved_qps", 0.0)
    n_queries = entry.get("queries", 0)
    n_errors = (entry.get("errors") or {}).get("count", 0)
    if slo.p99_ms is not None:
        if p99 is None:
            failures.append("no completed queries — p99 SLO cannot be met")
        elif p99 > slo.p99_ms:
            failures.append(
                f"latency p99 {p99:.3f} ms exceeds the declared SLO "
                f"bound {slo.p99_ms:.3f} ms"
            )
    if slo.min_qps is not None and achieved < slo.min_qps:
        failures.append(
            f"achieved throughput {achieved:.2f} qps is below the "
            f"declared floor {slo.min_qps:.2f} qps"
        )
    if n_queries:
        rate = n_errors / n_queries
        if rate > slo.max_error_rate:
            failures.append(
                f"error rate {rate:.4f} ({n_errors}/{n_queries}) exceeds "
                f"the budget {slo.max_error_rate:.4f}"
            )
    if baseline is not None and slo.regression_factor is not None:
        if baseline.get("spec") != entry.get("spec"):
            failures.append(
                "baseline entry was recorded under a different spec — "
                "refresh the baseline"
            )
        elif baseline.get("target", "pool") != entry.get("target", "pool"):
            failures.append(
                "baseline entry was recorded under a different target — "
                "refresh the baseline"
            )
        else:
            base_p99 = (baseline.get("latency_ms") or {}).get("p99")
            if base_p99 and p99 is not None and p99 > base_p99 * slo.regression_factor:
                failures.append(
                    f"latency p99 regressed {p99 / base_p99:.2f}x vs the "
                    f"baseline ({base_p99:.3f} ms -> {p99:.3f} ms, "
                    f"threshold {slo.regression_factor}x)"
                )
            base_qps = baseline.get("achieved_qps")
            if base_qps and achieved < base_qps / slo.regression_factor:
                failures.append(
                    f"achieved throughput fell {base_qps / achieved:.2f}x vs "
                    f"the baseline ({base_qps:.2f} -> {achieved:.2f} qps, "
                    f"threshold {slo.regression_factor}x)"
                )
    return failures


def _fmt_ms(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def render_entry_summary(entry: Mapping, baseline: Mapping | None = None) -> str:
    """Human-readable replay summary (the ``kpj loadtest`` stdout)."""
    spec = entry.get("spec") or {}
    lines = [
        f"loadtest {spec.get('name', '?')!r}: {spec.get('dataset', '?')} "
        f"({spec.get('algorithm', '?')}, {spec.get('kernel', '?')} kernel, "
        f"{spec.get('workers', '?')} worker(s), seed {spec.get('seed', '?')}, "
        f"target {entry.get('target', 'pool')})",
        f"  arrivals  {entry.get('queries', 0)} "
        f"(completed {entry.get('completed', 0)}, "
        f"errors {(entry.get('errors') or {}).get('count', 0)}), "
        f"schedule {str(entry.get('schedule_sha', '?'))[:12]}",
        f"  duration  {entry.get('duration_s', 0.0):.2f} s   "
        f"qps {entry.get('achieved_qps', 0.0):.2f} achieved / "
        f"{entry.get('target_qps', 0.0):g} target   "
        f"occupancy {entry.get('occupancy', 0.0):.2f}",
        "  component     p50 ms     p95 ms     p99 ms   p99.9 ms",
    ]
    for key, label in (
        ("latency_ms", "latency"),
        ("queue_wait_ms", "queue wait"),
        ("service_ms", "service"),
    ):
        block = entry.get(key) or {}
        lines.append(
            f"  {label:<10}"
            + "".join(
                f" {_fmt_ms(block.get(q)):>10}" for q in ("p50", "p95", "p99", "p999")
            )
        )
    if baseline is not None:
        base_p99 = (baseline.get("latency_ms") or {}).get("p99")
        now_p99 = (entry.get("latency_ms") or {}).get("p99")
        if base_p99 and now_p99 is not None:
            lines.append(
                f"  baseline  p99 {base_p99:.3f} ms "
                f"({baseline.get('date', '?')}): now {now_p99 / base_p99:.2f}x"
            )
    return "\n".join(lines)
