"""Command-line interface.

Subcommands::

    kpj query    --dataset CAL --source 12 --category Lake --k 10
    kpj batch    --dataset CAL --category Lake --sources 1,2,3 --workers 4
    kpj datasets
    kpj bench    --figure fig7 [--queries 3]
    kpj metrics  --spec benchmarks/specs/loadtest_smoke.json [--trace-out traces/]
    kpj trace    --dataset CAL --source 12 --category Lake --out t.json
    kpj report   [--trajectory benchmarks/results/BENCH_trajectory.json]
    kpj report   --loadtest [benchmarks/results/BENCH_loadtest.json]
    kpj loadtest --spec benchmarks/specs/loadtest_smoke.json [--out F]
    kpj serve    --dataset CAL --workers 4 --port 8321 [--prewarm Lake]
    kpj fuzz     --seed 0 --cases 1000 [--shrink] [--self-check]

``query`` answers one KPJ query on a named dataset and prints the
paths; ``batch`` answers a whole workload (optionally on resident
worker processes) and reports throughput; ``datasets`` lists the
registry (Table-1 style); ``bench`` reproduces one figure and prints
its table; ``metrics`` answers a workload spec's seeded queries as one
batch (the same validated :class:`~repro.bench.workload.WorkloadSpec`
that ``loadtest`` replays open-loop; arrival times, target QPS and the
SLO are ignored) and emits the aggregate registry as Prometheus text
exposition.  ``--stats`` prints the
instrumentation counters (search work, prepared-cache hits/misses)
next to the answers, and ``--metrics json|text`` attaches a
:class:`~repro.obs.metrics.MetricsRegistry` and emits the structured
run report (phase wall times, counters, gauges, and — for batches —
p50/p95/p99 query latency).

Tracing surfaces (see DESIGN.md §3d): ``trace`` answers one query
with a :class:`~repro.obs.tracing.SpanTracer` attached and writes the
span timeline as Chrome trace-event JSON (load in ``chrome://tracing``
or Perfetto); ``query --trace`` prints the span tree and the
per-depth :class:`~repro.obs.subspace_report.SubspaceTreeReport`
inline; ``metrics --spec W --trace-out DIR`` additionally writes
one Chrome trace file per query of the workload; ``explain`` answers
one query with a span tracer attached, like ``trace``, and narrates
the τ schedule from its ``iterate`` spans (``--tree`` adds the same
subspace-tree reconstruction).

Any :class:`~repro.exceptions.ReproError` a command raises — an
unknown category, ``--k 0``, a bad workload spec — exits 2 with its
message as one line on stderr.

Work-attribution surfaces (DESIGN.md §3g): ``--log FILE`` on
``query``/``batch`` appends one JSON event per query (stable query id,
latency, non-zero work counters) and ``--slow-ms`` additionally dumps
any threshold-crossing query's full trace + metrics to a file next to
the log; ``--profile FILE`` wraps the run in :mod:`cProfile` and
writes pstats data; ``--memory`` starts tracemalloc and records
per-phase allocation attribution plus process/pool byte gauges;
``trace --folded FILE`` writes the span timeline in folded-stack
flamegraph format; ``report`` renders the committed perf trajectory
(``benchmarks/results/BENCH_trajectory.json``) — latency history plus
work-counter deltas — as markdown.

Load testing (DESIGN.md §3h): ``loadtest`` validates a declarative
JSON/TOML workload spec (:mod:`repro.bench.workload`), expands it
into a seeded deterministic open-loop arrival schedule, replays it
against the resident-worker service — started in-process, or a
running ``kpj serve`` endpoint (``--url``) — and emits one
schema-versioned ``BENCH_loadtest.json`` entry — p50/p95/p99/p99.9
tail latency split into queue wait vs service time, achieved-vs-target
QPS, occupancy, error counts, per-phase timers and work counters —
then evaluates the spec's SLO gate (absolute p99/throughput floors
plus a regression bound against the pinned baseline entry), exiting
non-zero on any violation.  ``--out`` appends the entry before the gate
runs.  Every benchmark record is stamped, read, appended and matched to
its baseline by :mod:`repro.bench.trajectory`; ``report`` and
``report --loadtest`` render those files as markdown, marking entries
measured on a dirty tree.

Serving (DESIGN.md §3i): ``serve`` runs the persistent query service
— resident worker processes spawned once over shared-memory CSR
segments, warm :class:`~repro.core.kpj.PreparedCategory` LRUs, an
asyncio front-end with admission control, per-query deadlines, and
prepare coalescing — behind a dependency-free HTTP surface
(``POST /query``, ``GET /healthz``, ``GET /metrics`` Prometheus
exposition, ``GET /status``).

``fuzz`` runs the differential fuzzing harness (:mod:`repro.fuzz`):
seeded random instances cross-checked over every registry algorithm ×
cached/uncached × sequential/batch against the brute-force
and Yen oracles (small cases) or metamorphic invariants (large
cases).  Failures are shrunk and written as replayable repro files;
``--replay FILE`` re-runs one, and ``--self-check`` plants known
mutations to prove the harness catches each bug class.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench import experiments
from repro.bench.reporting import format_figure
from repro.core.kpj import ALGORITHMS, DEFAULT_ALGORITHM, KPJSolver
from repro.datasets.registry import available_datasets, road_network
from repro.exceptions import QueryError, ReproError

__all__ = ["main", "build_parser"]

_FIGURES = {
    "fig6a": experiments.fig6a,
    "fig6b": experiments.fig6b,
    "fig7": experiments.fig7,
    "fig8": experiments.fig8,
    "fig9": experiments.fig9,
    "fig10": experiments.fig10,
    "fig11": experiments.fig11,
    "fig12a": experiments.fig12a,
    "fig12b": experiments.fig12b,
    "fig13": experiments.fig13,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="kpj",
        description="Top-K Shortest Path Join (EDBT 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="answer one KPJ query")
    query.add_argument("--dataset", required=True, choices=available_datasets())
    query.add_argument("--source", type=int, required=True)
    query.add_argument("--category", required=True)
    query.add_argument("--k", type=int, default=10)
    query.add_argument(
        "--algorithm", default=DEFAULT_ALGORITHM, choices=sorted(ALGORITHMS)
    )
    query.add_argument("--landmarks", type=int, default=16)
    query.add_argument(
        "--stats", action="store_true", help="print instrumentation counters"
    )
    query.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    query.add_argument(
        "--metrics",
        choices=("json", "text"),
        default=None,
        help="emit the structured metrics report (phase timers etc.)",
    )
    query.add_argument(
        "--trace",
        action="store_true",
        help="record spans and print the span tree + subspace report",
    )
    _add_obs_flags(query)

    batch = sub.add_parser(
        "batch", help="answer a query workload, optionally in parallel"
    )
    batch.add_argument("--dataset", required=True, choices=available_datasets())
    batch.add_argument("--category", required=True)
    src_group = batch.add_mutually_exclusive_group(required=True)
    src_group.add_argument(
        "--sources", help="comma-separated source node ids"
    )
    src_group.add_argument(
        "--random-sources",
        type=int,
        metavar="N",
        help="sample N random source nodes instead of listing them",
    )
    batch.add_argument("--seed", type=int, default=0, help="sampling seed")
    batch.add_argument("--k", type=int, default=10)
    batch.add_argument(
        "--algorithm", default=DEFAULT_ALGORITHM, choices=sorted(ALGORITHMS)
    )
    batch.add_argument("--landmarks", type=int, default=16)
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="resident worker processes (1 = sequential)",
    )
    batch.add_argument(
        "--stats", action="store_true", help="print aggregate counters"
    )
    batch.add_argument(
        "--json", action="store_true", help="emit all results as JSON"
    )
    batch.add_argument(
        "--metrics",
        choices=("json", "text"),
        default=None,
        help="emit the aggregate metrics report with latency percentiles",
    )
    _add_obs_flags(batch)

    sub.add_parser("datasets", help="list datasets (Table 1)")

    bench = sub.add_parser("bench", help="reproduce one figure")
    bench.add_argument("--figure", required=True, choices=sorted(_FIGURES))
    bench.add_argument("--queries", type=int, default=3)

    compare = sub.add_parser(
        "compare", help="run every algorithm on one query and verify agreement"
    )
    compare.add_argument("--dataset", required=True, choices=available_datasets())
    compare.add_argument("--source", type=int, required=True)
    compare.add_argument("--category", required=True)
    compare.add_argument("--k", type=int, default=10)
    compare.add_argument("--landmarks", type=int, default=16)

    explain = sub.add_parser(
        "explain", help="narrate the iteratively bounding search for one query"
    )
    explain.add_argument("--dataset", required=True, choices=available_datasets())
    explain.add_argument("--source", type=int, required=True)
    explain.add_argument("--category", required=True)
    explain.add_argument("--k", type=int, default=5)
    explain.add_argument("--landmarks", type=int, default=16)
    explain.add_argument("--limit", type=int, default=40, help="max events shown")
    explain.add_argument(
        "--algorithm",
        default="iter-bound",
        choices=("iter-bound", "iter-bound-spti"),
        help="which iteratively bounding variant to narrate",
    )
    explain.add_argument(
        "--tree",
        action="store_true",
        help="print the per-depth subspace-tree report",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: every algorithm vs the oracles",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz.add_argument(
        "--cases", type=int, default=200, help="number of generated cases"
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop generating new cases after this much wall clock",
    )
    fuzz.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="minimise failing cases before reporting (default: on)",
    )
    fuzz.add_argument(
        "--corpus-dir",
        default="fuzz/corpus",
        help="where failure repro files are written (default: fuzz/corpus)",
    )
    fuzz.add_argument(
        "--self-check",
        action="store_true",
        help="plant each known mutation and assert the harness catches it",
    )
    fuzz.add_argument(
        "--replay",
        metavar="FILE",
        action="append",
        help="re-run a repro/corpus file instead of fuzzing (repeatable)",
    )

    metrics = sub.add_parser(
        "metrics",
        help="answer a workload spec's queries and print Prometheus exposition",
    )
    metrics.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="workload spec (.json or .toml; see benchmarks/specs/)",
    )
    metrics.add_argument(
        "--prefix", default="kpj", help="metric name prefix (default: kpj)"
    )
    metrics.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="also write one Chrome trace-event file per query into DIR",
    )

    trace = sub.add_parser(
        "trace", help="trace one query and write Chrome trace-event JSON"
    )
    trace.add_argument("--dataset", required=True, choices=available_datasets())
    trace.add_argument("--source", type=int, required=True)
    trace.add_argument("--category", required=True)
    trace.add_argument("--k", type=int, default=10)
    trace.add_argument(
        "--algorithm", default=DEFAULT_ALGORITHM, choices=sorted(ALGORITHMS)
    )
    trace.add_argument("--landmarks", type=int, default=16)
    trace.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace-event output file (default: trace.json)",
    )
    trace.add_argument(
        "--tree",
        action="store_true",
        help="also print the span tree and subspace report",
    )
    trace.add_argument(
        "--folded",
        default=None,
        metavar="FILE",
        help="also write the spans in folded-stack flamegraph format",
    )

    report = sub.add_parser(
        "report", help="render the perf trajectory + work deltas as markdown"
    )
    report.add_argument(
        "--trajectory",
        default="benchmarks/results/BENCH_trajectory.json",
        help="trajectory file (default: benchmarks/results/BENCH_trajectory.json)",
    )
    report.add_argument(
        "--loadtest",
        nargs="?",
        const="benchmarks/results/BENCH_loadtest.json",
        default=None,
        metavar="FILE",
        help="render the load-test trajectory instead "
        "(default file: benchmarks/results/BENCH_loadtest.json)",
    )
    report.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the markdown here instead of stdout",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="replay a declarative open-loop workload spec against a "
        "serving tier",
    )
    loadtest.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="workload spec (.json or .toml; see benchmarks/specs/)",
    )
    loadtest.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="append the entry to this BENCH_loadtest.json trajectory",
    )
    loadtest.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="trajectory holding the pinned baseline entry "
        "(default: the --out file before appending)",
    )
    loadtest.add_argument(
        "--json", action="store_true", help="emit the entry as JSON on stdout"
    )
    loadtest.add_argument(
        "--gate",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="evaluate the spec's SLO gate and exit non-zero on violation "
        "(default: on)",
    )
    loadtest.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="replay over HTTP against a running `kpj serve` endpoint "
        "instead of an in-process service",
    )

    serve = sub.add_parser(
        "serve",
        help="run the persistent query service (resident workers over "
        "shared-memory CSR, HTTP front-end)",
    )
    serve.add_argument("--dataset", required=True, choices=available_datasets())
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument(
        "--workers", type=int, default=2, help="resident worker processes"
    )
    serve.add_argument("--landmarks", type=int, default=16)
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission bound: submissions beyond this many in-flight "
        "queries are shed with HTTP 429",
    )
    serve.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        metavar="S",
        help="default per-query deadline (cooperative, checked at phase "
        "boundaries); requests may override via their timeout_s field",
    )
    serve.add_argument(
        "--prewarm",
        default=None,
        metavar="CATS",
        help="comma-separated categories whose prepared state is built "
        "at startup (one-time warmup phase) before the workers fork",
    )
    serve.add_argument(
        "--prepared-cache",
        type=int,
        default=32,
        help="per-worker PreparedCategory LRU bound",
    )
    return parser


def _add_obs_flags(sub_parser: argparse.ArgumentParser) -> None:
    """The work-attribution flags shared by ``query`` and ``batch``."""
    sub_parser.add_argument(
        "--log",
        default=None,
        metavar="FILE",
        help="append one JSON event per query to FILE (structured query log)",
    )
    sub_parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="with --log: dump trace+metrics of queries at/over MS "
        "next to the log file",
    )
    sub_parser.add_argument(
        "--profile",
        default=None,
        metavar="FILE",
        help="run under cProfile and write pstats data to FILE",
    )
    sub_parser.add_argument(
        "--memory",
        action="store_true",
        help="record tracemalloc phase attribution and memory gauges",
    )


def _print_stats(stats) -> None:
    """Render instrumentation counters: nonzero fields only, aligned."""
    fields = stats.nonzero()
    print("stats:")
    if not fields:
        print("  (all counters zero)")
        return
    width = max(len(name) for name in fields)
    for name, value in fields.items():
        print(f"  {name:<{width}}  {value}")


def _print_trace_report(trace: dict) -> None:
    """The span tree and subspace report shared by query/trace."""
    from repro.obs.subspace_report import SubspaceTreeReport
    from repro.obs.tracing import render_tree

    print("spans:")
    print(render_tree(trace))
    report = SubspaceTreeReport.from_spans(trace)
    if report.rows:
        print(report.render())


def _obs_wiring(args: argparse.Namespace):
    """Query logger + memory telemetry from the shared obs flags.

    Returns ``(query_log, memory)`` (either may be ``None``); raises
    :class:`ValueError` on an invalid flag combination — callers print
    the message and exit 2.
    """
    if args.slow_ms is not None and args.log is None:
        raise ValueError("--slow-ms requires --log")
    qlog = None
    if args.log:
        from repro.obs.log import QueryLogger

        qlog = QueryLogger(path=args.log, slow_ms=args.slow_ms)
    mem = None
    if args.memory:
        from repro.obs.memory import MemoryTelemetry

        mem = MemoryTelemetry().start()
    return qlog, mem


def _profiled(path: str, fn, *args, **kwargs):
    """Run ``fn`` under :mod:`cProfile`, writing pstats data to ``path``."""
    import cProfile

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(fn, *args, **kwargs)
    finally:
        profiler.dump_stats(path)
        print(
            f"# profile -> {path} (inspect: python -m pstats {path})",
            file=sys.stderr,
        )


def _print_memory(reg) -> None:
    """Byte accounting for ``--memory`` runs without a full metrics report.

    Gauges carry the peaks (RSS, tracemalloc, pool sizes); counters
    carry the per-phase net allocations (``mem_<phase>_alloc_bytes``).
    """
    rows = {
        name: value
        for source in (reg.gauges, reg.counters)
        for name, value in source.items()
        if name.endswith("_bytes")
    }
    print("memory:")
    if not rows:
        print("  (no memory gauges recorded)")
        return
    width = max(len(name) for name in rows)
    for name, value in sorted(rows.items()):
        print(f"  {name:<{width}}  {int(value)}")


def _dataset_for(args: argparse.Namespace):
    """The ``--dataset`` network, after checking ``--source`` is a node."""
    dataset = road_network(args.dataset)
    if args.source < 0 or args.source >= dataset.n:
        raise QueryError(f"source must be in [0, {dataset.n})")
    return dataset


def _cmd_query(args: argparse.Namespace) -> int:
    dataset = _dataset_for(args)
    try:
        qlog, mem = _obs_wiring(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    reg = None
    if args.metrics or args.memory or args.slow_ms is not None:
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
    tracer = None
    if args.trace or args.slow_ms is not None:
        # Slow dumps embed the trace, so slow-logging implies tracing.
        from repro.obs.tracing import SpanTracer

        tracer = SpanTracer()
    solver = KPJSolver(
        dataset.graph,
        dataset.categories,
        landmarks=args.landmarks,
        metrics=reg,
        tracer=tracer,
        query_log=qlog,
        memory=mem,
    )
    try:
        if args.profile:
            result = _profiled(
                args.profile,
                solver.top_k,
                args.source,
                category=args.category,
                k=args.k,
                algorithm=args.algorithm,
            )
        else:
            result = solver.top_k(
                args.source,
                category=args.category,
                k=args.k,
                algorithm=args.algorithm,
            )
    finally:
        if mem is not None:
            mem.stop()
        if qlog is not None:
            qlog.close()
    if args.metrics == "json":
        import json

        print(
            json.dumps(
                {"result": result.to_dict(), "metrics": reg.report()}, indent=2
            )
        )
        return 0
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(
        f"top-{args.k} paths from node {args.source} to category "
        f"{args.category!r} on {args.dataset} ({args.algorithm}):"
    )
    for rank, path in enumerate(result.paths, start=1):
        nodes = " -> ".join(str(v) for v in path.nodes)
        print(f"{rank:3d}. length {path.length:10.4f}  {nodes}")
    if not result.paths:
        print("  (no path found)")
    print(f"elapsed {result.elapsed_ms:.1f}ms")
    if args.stats:
        _print_stats(result.stats)
    if args.metrics == "text":
        print(reg.render_text())
    if args.memory and args.metrics is None:
        _print_memory(reg)
    if args.trace and result.trace is not None:
        _print_trace_report(result.trace)
    return 0


def _traced_query(args: argparse.Namespace, dataset):
    """Answer the command's query with a span tracer attached."""
    from repro.obs.tracing import SpanTracer

    solver = KPJSolver(
        dataset.graph,
        dataset.categories,
        landmarks=args.landmarks,
        tracer=SpanTracer(),
    )
    return solver.top_k(
        args.source, category=args.category, k=args.k, algorithm=args.algorithm
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.tracing import chrome_trace

    result = _traced_query(args, _dataset_for(args))
    doc = chrome_trace(result.trace)
    try:
        with open(args.out, "w") as fh:
            json.dump(doc, fh)
    except OSError as exc:
        print(f"cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 2
    print(
        f"{result.k_found} paths in {result.elapsed_ms:.1f}ms "
        f"({args.algorithm}); "
        f"{len(doc['traceEvents'])} spans -> {args.out}"
    )
    if args.folded:
        from repro.obs.tracing import folded_stacks

        try:
            with open(args.folded, "w") as fh:
                fh.write(folded_stacks(result.trace) + "\n")
        except OSError as exc:
            print(f"cannot write {args.folded!r}: {exc}", file=sys.stderr)
            return 2
        print(f"folded stacks -> {args.folded}")
    if args.tree:
        _print_trace_report(result.trace)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import time

    from repro.core.stats import SearchStats
    from repro.server.service import BatchQuery

    dataset = road_network(args.dataset)
    if args.sources is not None:
        try:
            sources = [int(s) for s in args.sources.split(",") if s.strip()]
        except ValueError:
            print("--sources must be comma-separated integers", file=sys.stderr)
            return 2
    else:
        import random

        rng = random.Random(args.seed)
        sources = [rng.randrange(dataset.n) for _ in range(args.random_sources)]
    if not sources:
        print("batch needs at least one source", file=sys.stderr)
        return 2
    for source in sources:
        if source < 0 or source >= dataset.n:
            print(f"source {source} must be in [0, {dataset.n})", file=sys.stderr)
            return 2
    try:
        qlog, mem = _obs_wiring(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    reg = None
    if args.metrics or args.memory or args.slow_ms is not None:
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
    solver = KPJSolver(
        dataset.graph,
        dataset.categories,
        landmarks=args.landmarks,
        metrics=reg,
        query_log=qlog,
        memory=mem,
    )
    if reg is not None:
        # The registry captured landmark_build during construction;
        # detach it so run_batch installs its own per-batch registry
        # (the aggregate arrives via the ``metrics=`` merge — leaving
        # it attached would double-count sequential batches).  The
        # query logger and memory telemetry stay attached: resident
        # workers inherit them through the fork, each appending whole
        # lines to the same log file (O_APPEND keeps lines intact).
        solver.metrics = None
    queries = [
        BatchQuery(
            source=source,
            category=args.category,
            k=args.k,
            algorithm=args.algorithm,
        )
        for source in sources
    ]
    total = SearchStats() if args.stats else None
    start = time.perf_counter()
    try:
        if args.profile:
            results = _profiled(
                args.profile,
                solver.solve_batch,
                queries,
                workers=args.workers,
                stats=total,
                metrics=reg,
            )
        else:
            results = solver.solve_batch(
                queries, workers=args.workers, stats=total, metrics=reg
            )
    finally:
        if mem is not None:
            mem.stop()
        if qlog is not None:
            qlog.close()
    elapsed = time.perf_counter() - start
    if args.metrics == "json":
        import json

        print(json.dumps(_batch_report(args, results, elapsed, reg), indent=2))
        return 0
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "dataset": args.dataset,
                    "category": args.category,
                    "workers": args.workers,
                    "elapsed_s": elapsed,
                    "queries_per_s": len(results) / elapsed if elapsed else 0.0,
                    **({"stats": total.as_dict()} if total is not None else {}),
                    "results": [
                        {"source": q.source, **r.to_dict()}
                        for q, r in zip(queries, results)
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(
        f"{len(results)} queries to category {args.category!r} on "
        f"{args.dataset} ({args.algorithm}, workers={args.workers}):"
    )
    for query, result in zip(queries, results):
        best = f"{result.paths[0].length:.4f}" if result.paths else "-"
        print(
            f"  source {query.source:>6}: {result.k_found:>3} paths, "
            f"best {best}"
        )
    throughput = len(results) / elapsed if elapsed else 0.0
    print(f"elapsed {elapsed * 1000.0:.1f}ms  ({throughput:.1f} queries/s)")
    if total is not None:
        _print_stats(total)
    if args.metrics == "text":
        print(reg.render_text())
    if args.memory and args.metrics is None:
        _print_memory(reg)
    return 0


def _batch_report(args, results, elapsed: float, reg) -> dict:
    """The ``batch --metrics json`` document (one pipeable JSON object)."""
    latency = reg.histograms.get("query_latency_ms")

    def _q(q: float):
        if latency is None or latency.total == 0:
            return None
        return latency.quantile(q)

    return {
        "dataset": args.dataset,
        "category": args.category,
        "algorithm": args.algorithm,
        "workers": args.workers,
        "queries": len(results),
        "elapsed_s": elapsed,
        "queries_per_s": len(results) / elapsed if elapsed else 0.0,
        "latency_ms": {"p50": _q(0.50), "p95": _q(0.95), "p99": _q(0.99)},
        "metrics": reg.report(),
    }


def _cmd_datasets(_: argparse.Namespace) -> int:
    print(f"{'dataset':<8} {'nodes':>9} {'edges':>9} {'paper n':>10} {'paper m':>11}")
    for row in experiments.table1():
        print(
            f"{row['dataset']:<8} {row['nodes']:>9} {row['edges']:>9} "
            f"{row['paper_nodes']:>10} {row['paper_edges']:>11}"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import inspect

    run = _FIGURES[args.figure]
    kwargs = {}
    if "queries_per_point" in inspect.signature(run).parameters:
        kwargs["queries_per_point"] = args.queries
    figure = run(**kwargs)
    print(format_figure(figure))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = _dataset_for(args)
    solver = KPJSolver(dataset.graph, dataset.categories, landmarks=args.landmarks)
    header = f"{'algorithm':<22} {'time':>10} {'SP comps':>9} {'settled':>9}"
    print(header)
    print("-" * len(header))
    reference: tuple[float, ...] | None = None
    mismatches = 0
    for algorithm in sorted(ALGORITHMS):
        result = solver.top_k(
            args.source, category=args.category, k=args.k, algorithm=algorithm
        )
        elapsed = result.elapsed_ms
        lengths = tuple(round(x, 9) for x in result.lengths)
        if reference is None:
            reference = lengths
        agree = lengths == reference
        if not agree:
            mismatches += 1
        print(
            f"{algorithm:<22} {elapsed:8.1f}ms "
            f"{result.stats.shortest_path_computations:>9} "
            f"{result.stats.nodes_settled:>9}"
            f"{'' if agree else '  <-- MISMATCH'}"
        )
    if mismatches:
        print(f"{mismatches} algorithms disagree!", file=sys.stderr)
        return 1
    print(f"all algorithms agree on {len(reference or ())} path lengths")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.subspace_report import SubspaceTreeReport
    from repro.obs.tracing import render_narrative

    dataset = _dataset_for(args)
    result = _traced_query(args, dataset)
    destinations = dataset.categories.nodes_of(args.category)
    print(
        f"{args.algorithm} on {args.dataset}: "
        f"node {args.source} -> category "
        f"{args.category!r} (|V_T|={len(destinations)}), k={args.k}\n"
    )
    print(render_narrative(result.trace, limit=args.limit))
    if args.tree:
        print()
        print(SubspaceTreeReport.from_spans(result.trace).render())
    print(f"\nfound {len(result.paths)} paths; lengths: "
          + ", ".join(f"{p.length:.4g}" for p in result.paths))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import replay_file, run_fuzz, self_check

    if args.replay:
        worst = 0
        for path in args.replay:
            try:
                failures = replay_file(path)
            except QueryError as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                return 2
            if failures:
                worst = 1
                print(f"{path}: {len(failures)} failure(s)")
                for message in failures:
                    print(f"  - {message}")
            else:
                print(f"{path}: ok")
        return worst
    if args.self_check:
        outcomes = self_check(seed=args.seed)
        width = max(len(name) for name in outcomes)
        all_good = True
        for name, good in sorted(outcomes.items()):
            verdict = "detected" if good else "MISSED"
            if name == "clean":
                verdict = "no false positives" if good else "FALSE POSITIVE"
            all_good &= good
            print(f"  {name:<{width}}  {verdict}")
        if not all_good:
            print("self-check FAILED: the harness is blind to a planted bug",
                  file=sys.stderr)
            return 1
        print(f"self-check ok: {len(outcomes) - 1} planted mutations "
              "detected, clean run stayed green")
        return 0
    report = run_fuzz(
        seed=args.seed,
        cases=args.cases,
        time_budget=args.time_budget,
        shrink=args.shrink,
        corpus_dir=args.corpus_dir,
        progress=print,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.bench.loadtest import spec_queries, spec_solver
    from repro.bench.workload import generate_schedule, load_spec
    from repro.core.stats import SearchStats
    from repro.obs.metrics import MetricsRegistry

    try:
        spec = load_spec(args.spec)
    except QueryError as exc:
        print(f"bad workload spec: {exc}", file=sys.stderr)
        return 2
    reg = MetricsRegistry()
    tracer = None
    if args.trace_out is not None:
        from repro.obs.tracing import SpanTracer

        tracer = SpanTracer()
    # The registry attached at construction captures landmark_build.
    dataset, solver = spec_solver(spec, metrics=reg)
    # Detach: run_batch installs a per-batch registry and delivers the
    # aggregate through ``metrics=`` (avoids double-counting).
    solver.metrics = None
    stats = SearchStats()
    # Arrival times, target_qps and the SLO belong to the open-loop
    # replay (`kpj loadtest`); here the schedule is one batch.
    results = solver.solve_batch(
        spec_queries(spec, generate_schedule(spec, dataset.n)),
        workers=spec.workers,
        stats=stats,
        metrics=reg,
        tracer=tracer,
    )
    reg.merge_stats(stats)
    if args.trace_out is not None:
        import os

        from repro.obs.tracing import chrome_trace

        try:
            os.makedirs(args.trace_out, exist_ok=True)
            written = 0
            for i, result in enumerate(results):
                if result.trace is None:
                    continue
                path = os.path.join(args.trace_out, f"query-{i:03d}.trace.json")
                with open(path, "w") as fh:
                    json.dump(chrome_trace(result.trace), fh)
                written += 1
        except OSError as exc:
            print(f"cannot write traces to {args.trace_out!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"# wrote {written} trace files to {args.trace_out}",
              file=sys.stderr)
    sys.stdout.write(reg.render_prom(prefix=args.prefix))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.bench.trajectory import (
        load,
        render_loadtest_report,
        render_trajectory_report,
    )

    path = args.loadtest if args.loadtest is not None else args.trajectory
    kind = "loadtest trajectory" if args.loadtest is not None else "trajectory"
    if not os.path.exists(path):
        # A missing file is a report about nothing, not a crash: one
        # clean line and a non-zero exit the caller can branch on.
        print(f"no {kind} at {path!r} — nothing to report", file=sys.stderr)
        return 2
    try:
        trajectory = load(path)
    except OSError as exc:
        print(f"cannot read {kind} {path!r}: {exc}", file=sys.stderr)
        return 2
    if not trajectory:
        print(f"{kind} {path!r} is empty — no entries to report")
        return 0
    if args.loadtest is not None:
        doc = render_loadtest_report(trajectory)
    else:
        doc = render_trajectory_report(trajectory)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(doc)
        except OSError as exc:
            print(f"cannot write {args.out!r}: {exc}", file=sys.stderr)
            return 2
        print(f"report -> {args.out}")
    else:
        print(doc, end="")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json

    from repro.bench.loadtest import (
        evaluate_gate,
        render_entry_summary,
        replay_workload,
    )
    from repro.bench.trajectory import append, host_note, latest, load
    from repro.bench.workload import load_spec

    try:
        spec = load_spec(args.spec)
    except QueryError as exc:
        print(f"bad workload spec: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        load(args.out)  # a malformed --out fails before the replay
    baseline_path = args.baseline if args.baseline is not None else args.out
    baseline = None
    if baseline_path is not None:
        baseline = latest(
            load(baseline_path), spec=spec.as_dict(), target="service"
        )
    entry = replay_workload(
        spec, progress=lambda msg: print(f"# {msg}", file=sys.stderr),
        url=args.url,
    )
    if args.out is not None:
        try:
            append(args.out, entry)
        except OSError as exc:
            print(f"cannot write {args.out!r}: {exc}", file=sys.stderr)
            return 2
        print(f"# entry -> {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(entry, indent=2))
    else:
        print(render_entry_summary(entry, baseline))
    if not args.gate:
        return 0
    failures = evaluate_gate(entry, spec, baseline)
    out = sys.stderr if args.json or failures else sys.stdout
    if failures:
        print("SLO GATE FAILED:", file=out)
        for failure in failures:
            print(f"  - {failure}", file=out)
    elif baseline is None:
        print("slo gate OK", file=out)
    else:
        print(
            f"slo gate OK vs baseline {str(baseline.get('sha', '?'))[:12]} "
            f"({baseline.get('date', '?')})",
            file=out,
        )
    note = host_note(entry, baseline) if baseline is not None else None
    if note is not None:
        print(f"  {note}", file=out)
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.http import run_server
    from repro.server.service import QueryService

    dataset = road_network(args.dataset)
    solver = KPJSolver(
        dataset.graph,
        dataset.categories,
        landmarks=args.landmarks,
        prepared_cache_size=args.prepared_cache,
    )
    prewarm = (
        tuple(c.strip() for c in args.prewarm.split(",") if c.strip())
        if args.prewarm
        else ()
    )
    service = QueryService(
        solver,
        workers=args.workers,
        max_pending=args.max_pending,
        default_timeout_s=args.timeout_s,
        prewarm=prewarm,
    )
    print(
        f"starting service: dataset {args.dataset}, {args.workers} "
        f"resident worker(s), {args.landmarks} landmarks",
        flush=True,
    )
    try:
        run_server(
            service,
            host=args.host,
            port=args.port,
            announce=lambda msg: print(msg, flush=True),
        )
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    print("service stopped (workers retired, shared memory unlinked)")
    return 0


_COMMANDS = {
    "query": _cmd_query,
    "batch": _cmd_batch,
    "datasets": _cmd_datasets,
    "bench": _cmd_bench,
    "compare": _cmd_compare,
    "explain": _cmd_explain,
    "fuzz": _cmd_fuzz,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "loadtest": _cmd_loadtest,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`~repro.exceptions.ReproError` out of any command is a bad
    request, not a crash: its message goes to stderr and the exit code
    is 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
