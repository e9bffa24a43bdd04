"""``hot-categories`` and ``adhoc-destinations``: KPJSolver in-process.

One client: a closed loop (phase A), then, in traced runs only, an
open-loop Poisson schedule (phase B), whose latencies are per-layer
numbers.  Answers of phase A are checked right after each timed call;
those of phase B after the phase, so checking never delays the
schedule.  ``qps`` is phase A's completed queries over the time spent
inside the solver calls.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter, sleep

from checks import DIGEST_QUERIES, AnswerChecker, Tally, oracle_checks
from inputs import Workload, arrival_offsets, queries, take
from layers import SolverLayers
from measure import median, pct, ratio, self_peak_rss_mb
from spans import Spans

WARMUP_QUERIES = 16
#: Yen checks this many answers, drawn from the first SAMPLE_WINDOW
#: closed-loop queries.
YEN_SAMPLES = 3
SAMPLE_WINDOW = 64
#: Closed-loop queries replayed without tracing to price the tracing.
OVERHEAD_QUERIES = 100


def solve(solver, q: dict):
    return solver.top_k(
        q["source"], category=q.get("category"), destinations=q.get("destinations"), k=q["k"]
    )


def build(w: Workload, seed: int, spans: Spans | None = None):
    """Dataset, solver (landmarks) and the warm-up pass, timed."""
    from repro.core.kpj import KPJSolver
    from repro.datasets.registry import road_network

    span = spans.span if spans is not None else (lambda name: nullcontext())
    t0 = perf_counter()
    with span("road_network"):
        dataset = road_network(w.dataset)
    t1 = perf_counter()
    with span("KPJSolver"):
        solver = KPJSolver(dataset.graph, dataset.categories)
    t2 = perf_counter()
    category_sets = {c: frozenset(dataset.categories.nodes_of(c)) for c in w.categories}
    for q in take(queries(w, dataset.n, category_sets, seed, "warmup"), WARMUP_QUERIES):
        solve(solver, q)
    t3 = perf_counter()
    times = {
        "datasets.build_s": t1 - t0,
        "landmarks.build_s": t2 - t1,
        "warmup.s": t3 - t2,
        "setup_s": t3 - t0,
    }
    return dataset, solver, category_sets, times


def probe_setup(root, w: Workload, size: str, seed: int) -> dict:
    """One set-up in a fresh interpreter, so nothing is cached."""
    out = subprocess.run(
        [sys.executable, "kpjbench/run.py", "--setup-probe", "--workload", w.name,
         "--size", size, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class _Traced:
    """Runs each query as the solver's public steps, one span each:
    ``KPJSolver.prepare`` → ``PreparedCategory.query_graph_for`` →
    ``PreparedCategory.top_k``."""

    def __init__(self, solver, spans: Spans) -> None:
        self.solver = solver
        self.spans = spans
        self.hits = 0
        self.misses = 0

    def __call__(self, qid: int, q: dict):
        solver, span = self.solver, self.spans.span
        misses = solver.cache_info()["misses"]
        with span("query", qid):
            with span("KPJSolver.prepare", qid):
                prepared = solver.prepare(category=q.get("category"), destinations=q.get("destinations"))
            with span("PreparedCategory.query_graph_for", qid):
                prepared.query_graph_for(q["source"])
            with span("PreparedCategory.top_k", qid):
                result = prepared.top_k(q["source"], k=q["k"])
        if solver.cache_info()["misses"] > misses:
            self.misses += 1
        else:
            self.hits += 1
        return result


def run(root, w: Workload, size: str, seed: int, seconds: float, trace: bool, setup_reps: int) -> dict:
    from repro.obs.metrics import MetricsRegistry

    setups = [probe_setup(root, w, size, seed) for _ in range(setup_reps - 1)]
    spans = Spans() if trace else None
    dataset, solver, category_sets, own = build(w, seed, spans)
    setups.append(own)
    checker = AnswerChecker(dataset.graph)

    def destinations(q):
        return category_sets[q["category"]] if "category" in q else frozenset(q["destinations"])

    tally = Tally()
    layers = SolverLayers()

    def verdict(q, result):
        if isinstance(result, Exception):
            return f"query raised {result!r}"
        if trace:
            layers.add(result.stats.as_dict(), result.metrics)
        return checker.check(q, destinations(q), [(p.length, p.nodes) for p in result.paths])

    if trace:
        solver.metrics = MetricsRegistry()
        call = _Traced(solver, spans)
    else:
        call = lambda qid, q: solve(solver, q)  # noqa: E731

    open_s = seconds / 2 if trace else 0.0
    closed_s = seconds - open_s

    # Phase A: closed loop, one client.
    yen_at = set(random.Random(f"{seed}:yen").sample(range(SAMPLE_WINDOW), YEN_SAMPLES))
    samples, digest_lists, closed_ms, replay = [], [], [], []
    busy = 0.0
    for i, q in enumerate(queries(w, dataset.n, category_sets, seed, "closed")):
        if busy >= closed_s:
            break
        t0 = perf_counter()
        try:
            result = call(i, q)
        except Exception as exc:  # counted as a failed query
            result = exc
        t1 = perf_counter()
        busy += t1 - t0
        closed_ms.append((t1 - t0) * 1e3)
        if trace and i < OVERHEAD_QUERIES:
            replay.append(q)
        tally.add(verdict(q, result))
        if isinstance(result, Exception):
            continue
        if i < DIGEST_QUERIES:
            digest_lists.append(list(result.lengths))
        if i in yen_at:
            samples.append((q, tuple(sorted(destinations(q))), list(result.lengths)))

    # Phase B: open loop at a fixed rate; latency from each query's due time.
    offsets = arrival_offsets(w.open_qps, open_s, seed)
    open_qs = take(queries(w, dataset.n, category_sets, seed, "open"), len(offsets))
    timeline = []
    t_start = perf_counter()
    for j, (offset, q) in enumerate(zip(offsets, open_qs)):
        due = t_start + offset
        delay = due - perf_counter()
        if delay > 0:
            sleep(delay)
        start = perf_counter()
        try:
            result = call(len(closed_ms) + j, q)
        except Exception as exc:  # counted as a failed query
            result = exc
        timeline.append((due, start, perf_counter(), result, len(closed_ms) + j))
    open_wall = perf_counter() - t_start
    for q, (_, _, _, result, _) in zip(open_qs, timeline):
        tally.add(verdict(q, result))

    details = oracle_checks(tally, dataset.graph, samples, digest_lists, w.name, size, seed)
    open_ms = [(end - due) * 1e3 for due, _, end, *_ in timeline]
    metrics = {
        "qps": len(closed_ms) / busy,
        "latency_p50_ms": pct(closed_ms, 0.5),
        "latency_p99_ms": pct(closed_ms, 0.99),
        "open_p50_ms": pct(open_ms, 0.5),
        "open_p99_ms": pct(open_ms, 0.99),
        "success_ratio": 1.0 - ratio(tally.failed, tally.attempted),
        "setup_s": median(s["setup_s"] for s in setups),
        "peak_rss_mb": self_peak_rss_mb(),
    }
    details.update(kernel=solver.kernel, closed_samples=len(closed_ms), open_samples=len(open_ms),
                   setups=setups)
    if trace:
        metrics.update(_layer_metrics(solver, spans, layers, call, setups, timeline, open_wall,
                                      replay))
        details["spans"] = spans
    return {"metrics": metrics, "tally": tally, "details": details}


def _tracing_cost(solver, replay) -> tuple[float, float]:
    """Seconds for ``replay`` traced and untraced, alternating which
    runs first so drift and cache warmth fall on both sides."""
    from repro.obs.metrics import MetricsRegistry

    traced_call = _Traced(solver, Spans())
    registry = MetricsRegistry()
    seconds = {True: 0.0, False: 0.0}
    for i, q in enumerate(replay):
        for traced in (i % 2 == 0, i % 2 == 1):
            solver.metrics = registry if traced else None
            t0 = perf_counter()
            traced_call(i, q) if traced else solve(solver, q)
            seconds[traced] += perf_counter() - t0
    solver.metrics = None
    return seconds[True], seconds[False]


def _layer_metrics(solver, spans: Spans, layers: SolverLayers, call: _Traced, setups,
                   timeline, open_wall: float, replay) -> dict:
    wall = sum(spans.durations("query"))
    prepare = spans.durations("KPJSolver.prepare")
    overlay = spans.durations("PreparedCategory.query_graph_for")
    search = spans.durations("PreparedCategory.top_k")
    n = spans.count("query")
    # Time inside the solver not covered by a span or a solver phase.
    unattributed = wall - sum(prepare) - sum(overlay) - layers.attributed_s
    registry = solver.metrics.as_dict()
    reconciled = (
        layers.counts_consistent()
        and layers.queries == n == len(prepare) == len(overlay) == len(search)
        and registry["counters"].get("queries", 0) == n
        and abs(unattributed) <= 0.10 * wall
    )
    traced, untraced = _tracing_cost(solver, replay)

    answered = [(qid, r) for *_, r, qid in timeline if not isinstance(r, Exception)]
    solve_ms = [r.elapsed_ms for _, r in answered]
    waits = [(start - due) * 1e3 for due, start, *_ in timeline]
    # Time in a query's span outside the solver's steps and its own clock.
    query_s, prepare_s, overlay_s = (
        spans.by_query(name) for name in
        ("query", "KPJSolver.prepare", "PreparedCategory.query_graph_for")
    )
    overhead_ms = [(query_s[q] - prepare_s[q] - overlay_s[q]) * 1e3 - r.elapsed_ms
                   for q, r in answered]
    out = {
        "datasets.build_s": median(s["datasets.build_s"] for s in setups),
        "landmarks.build_s": median(s["landmarks.build_s"] for s in setups),
        "warmup.s": median(s["warmup.s"] for s in setups),
        "prepare.calls": len(prepare),
        "prepare.hits": call.hits,
        "prepare.misses": call.misses,
        "prepare.hit_ratio": ratio(call.hits, len(prepare)),
        "prepare.ms_p50": pct(prepare, 0.5) * 1e3,
        "prepare.ms_share": ratio(sum(prepare), wall),
        "graph.overlay_ms_p50": pct(overlay, 0.5) * 1e3,
        "graph.overlay_ms_share": ratio(sum(overlay), wall),
        "search.ms_p50": pct(search, 0.5) * 1e3,
        "search.ms_share": ratio(sum(search), wall),
        # One in-process executor: a query waits only for the previous one.
        "service.queue_wait_ms_p50": pct(waits, 0.5),
        "service.queue_wait_ms_p99": pct(waits, 0.99),
        "service.solve_ms_p50": pct(solve_ms, 0.5),
        "service.overhead_ms_p50": pct(overhead_ms, 0.5),
        "service.occupancy": ratio(sum(solve_ms) / 1e3, open_wall),
        "service.prepares": 0,
        "service.prepares_coalesced": 0,
        "service.rejected": 0,
        "service.worker_deaths": 0,
        "http.response_bytes_mean": 0.0,
        "http.non200": 0,
        "generator.lag_ms_p99": pct(waits, 0.99),
        "generator.sent": len(timeline),
        "trace.overhead_ratio": ratio(traced, untraced),
        "trace.unattributed_ratio": ratio(unattributed, wall),
        "trace.reconciled": int(reconciled),
    }
    out.update(layers.metrics())
    return out
