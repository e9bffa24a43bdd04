"""Open-loop load-test replay, aggregation, and the SLO gate.

:func:`replay_workload` takes a frozen
:class:`~repro.bench.workload.WorkloadSpec`, expands it into its
deterministic arrival schedule, and replays it against the
resident-worker service: the dispatcher sleeps until each arrival's
scheduled offset and submits the query **regardless of completions**
(open loop), so a system that cannot keep up accumulates visible
queue wait instead of quietly throttling the offered load.

The same pacing loop drives both ways of reaching the service:

* in-process — a :class:`repro.server.service.QueryService` started
  for the replay with ``spec.workers`` workers and the spec's
  categories prewarmed: warm-up (shared-memory export, category
  prewarm, forks) is paid **once at service start** and lands in the
  entry's one-time ``warmup`` phase, so ``service_ms`` reflects
  steady-state serving;
* ``url=...`` — an already-running ``kpj serve`` endpoint, replayed
  over HTTP; the per-query phases come from each response's metrics
  snapshot and the ``warmup`` phase from the server's ``/status``
  report.

Every query comes back with its metrics snapshot and serving timing
carrying its ``queue_wait_s``, so queue wait and service time
are attributed separately without any new timers on the query path.
Entries record ``target: service``; the baseline lookup
(:func:`repro.bench.trajectory.latest` on the exact spec plus
``target="service"``) only matches such entries, so the committed
entries of the deleted fork-per-batch pool (no ``target`` field, or
``"pool"``) never gate a replay.

Collection rides the existing observability layers: per-query latency
from ``QueryResult.elapsed_ms``, per-phase wall clock from the merged
:class:`~repro.obs.metrics.MetricsRegistry` snapshots, per-phase work
counters from ``SearchStats`` via
:func:`repro.bench.trajectory.accumulate_work`.  Tail behaviour is
summarised into log-spaced histograms
(:data:`~repro.obs.metrics.LOADTEST_LATENCY_BUCKETS_MS`) so
p50/p95/p99/p99.9 stay in finite buckets even when queueing pushes
the tail far beyond any single query's service time.

The result is one schema-versioned ``BENCH_loadtest.json`` entry,
stamped by :func:`repro.bench.trajectory.stamp`; :func:`evaluate_gate`
enforces the spec's declared SLO (absolute p99 and throughput floors,
error budget) plus a regression bound against the pinned baseline
entry with the identical spec.  Queries that
raise are **counted, not fatal** — a serving benchmark reports its
error rate and lets the gate's error budget decide.
"""

from __future__ import annotations

import json
import math
from time import perf_counter, sleep
from typing import Mapping, Sequence

from repro.bench.trajectory import accumulate_work, stamp
from repro.bench.workload import (
    Arrival,
    WorkloadSpec,
    generate_schedule,
    schedule_digest,
)
from repro.exceptions import QueryError
from repro.obs.metrics import (
    LOADTEST_LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "LOADTEST_SCHEMA_VERSION",
    "spec_solver",
    "spec_queries",
    "replay_workload",
    "evaluate_gate",
    "render_entry_summary",
]

#: Version stamped into every ``BENCH_loadtest.json`` entry; bump on
#: any change to the entry's fields or their meaning.  Version 2 adds
#: the ``dirty`` flag and the ``host`` block of
#: :func:`repro.bench.trajectory.stamp`.
LOADTEST_SCHEMA_VERSION = 2

#: The tail quantiles every latency block reports.
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


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


def spec_solver(spec: WorkloadSpec, metrics: MetricsRegistry | None = None):
    """``(dataset, solver)`` for ``spec``: its dataset, ``spec.landmarks``.

    Raises :class:`~repro.exceptions.QueryError` when the dataset lacks
    one of the spec's categories, before any landmark is built.
    ``metrics`` is attached at construction, so it records the
    ``landmark_build`` phase.
    """
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
        metrics=metrics,
    )
    return dataset, solver


def spec_queries(spec: WorkloadSpec, schedule: Sequence[Arrival]) -> list:
    """The schedule's arrivals as :class:`~repro.server.service.BatchQuery`
    objects, each with the spec's algorithm and alpha."""
    from repro.server.service import BatchQuery

    return [
        BatchQuery(
            source=a.source, category=a.category, k=a.k,
            algorithm=spec.algorithm, alpha=spec.alpha,
        )
        for a in schedule
    ]


def _pace(schedule, queries, submit) -> tuple[list, float]:
    """Submit each query at its scheduled offset, regardless of
    completions; return ``(arrival, result-or-exception)`` pairs and
    the makespan.  ``submit`` returns a ``concurrent.futures`` future.
    """
    t0 = perf_counter()
    pending = []
    for arrival, query in zip(schedule, queries):
        delay = arrival.offset_s - (perf_counter() - t0)
        if delay > 0:
            sleep(delay)
        pending.append((arrival, submit(query)))
    raws: list[tuple] = []
    for arrival, future in pending:
        try:
            raws.append((arrival, future.result()))
        except Exception as exc:
            raws.append((arrival, exc))
    return raws, perf_counter() - t0


def _replay_service(spec, solver, schedule, queries, agg):
    """Replay on a service started for the run, warm-up paid once."""
    from repro.server.service import QueryService

    service = QueryService(
        solver,
        workers=spec.workers,
        # The replay is open-loop by design — admission shedding would
        # turn offered-load pressure into errors, which is the serve
        # path's policy, not the benchmark's.  Bound high enough that
        # every arrival is admitted.
        max_pending=len(schedule),
        prewarm=spec.categories,
    )
    service.start()
    try:
        raws, makespan = _pace(schedule, queries, service.submit)
    finally:
        service.shutdown()
    seconds, calls = service.metrics.phases["warmup"]
    agg.observe_phase("warmup", seconds, calls=calls)
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

    timeout = 120.0

    def fetch(query):
        payload = {
            "source": query.source, "k": query.k,
            "algorithm": query.algorithm, "alpha": query.alpha,
        }
        if query.category is not None:
            payload["category"] = query.category
        if query.destinations is not None:
            payload["destinations"] = list(query.destinations)
        body = _http_query(url, payload, timeout)
        # The fields of a QueryResult that the aggregation reads.
        return SimpleNamespace(
            timing=body.get("timing") or {},
            elapsed_ms=float(body.get("elapsed_ms", 0.0)),
            stats=SearchStats(**(body.get("stats") or {})),
            metrics=body.get("metrics"),
        )

    with ThreadPoolExecutor(
        max_workers=min(64, max(4, spec.workers * 4))
    ) as executor:
        raws, makespan = _pace(
            schedule, queries, lambda query: executor.submit(fetch, query)
        )
    # The server's one-time warm-up lives in its /status report.
    try:
        import urllib.request

        with urllib.request.urlopen(
            url.rstrip("/") + "/status", timeout=10
        ) as response:
            status = json.loads(response.read().decode("utf-8"))
        warmup = (status["metrics"].get("phases") or {}).get("warmup")
        if warmup:
            agg.observe_phase(
                "warmup", warmup.get("seconds", 0.0), calls=warmup.get("calls", 1)
            )
    except Exception:  # pragma: no cover - status endpoint unreachable
        pass
    return raws, makespan


def replay_workload(
    spec: WorkloadSpec, progress=None, url: str | None = None
) -> dict:
    """Replay ``spec`` open-loop and return one trajectory entry.

    The replay runs on a :class:`~repro.server.service.QueryService`
    started in-process, or — when ``url`` is given — over HTTP against
    a running ``kpj serve``.  Raises
    :class:`~repro.exceptions.QueryError` on spec/dataset mismatches
    (unknown category).  Individual query failures during the replay
    are counted into the entry's ``errors`` block instead of aborting
    — the SLO gate's error budget decides whether they fail the run.
    """
    if url is not None:
        from repro.datasets.registry import road_network

        solver = None
        schedule = generate_schedule(spec, road_network(spec.dataset).n)
    else:
        dataset, solver = spec_solver(spec)
        schedule = generate_schedule(spec, dataset.n)
    if progress is not None:
        progress(
            f"replaying {spec.name!r}: {len(schedule)} arrivals at "
            f"{spec.target_qps:g} qps over {spec.workers} worker(s) "
            f"[{url if url is not None else 'in-process service'}]"
        )
    queries = spec_queries(spec, schedule)
    agg = MetricsRegistry()
    if url is not None:
        raws, makespan = _replay_http(spec, url, schedule, queries, agg)
    else:
        raws, makespan = _replay_service(spec, solver, schedule, queries, agg)

    latency = Histogram(LOADTEST_LATENCY_BUCKETS_MS)
    queue_wait = Histogram(LOADTEST_LATENCY_BUCKETS_MS)
    service = Histogram(LOADTEST_LATENCY_BUCKETS_MS)
    work: dict = {}
    errors: list[dict] = []
    service_total_s = 0.0
    for arrival, raw in raws:
        if isinstance(raw, Exception):
            errors.append({"index": arrival.index, "error": str(raw)})
            continue
        # Results arrive with the service-derived queue wait.
        qw_ms = max(0.0, (raw.timing or {}).get("queue_wait_s", 0.0)) * 1e3
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
        **stamp(),
        "spec": spec.as_dict(),
        "target": "service",
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
        f"({spec.get('algorithm', '?')}, "
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
