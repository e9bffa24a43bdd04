"""Command-line interface.

Subcommands::

    kpj query    --dataset CAL --source 12 --category Lake --k 10
    kpj batch    --spec benchmarks/specs/loadtest_smoke.json [--json]
    kpj datasets
    kpj bench    --figure fig7 [--queries 3]
    kpj report   [--trajectory benchmarks/results/BENCH_trajectory.json]
    kpj report   --loadtest [benchmarks/results/BENCH_loadtest.json]
    kpj loadtest --spec benchmarks/specs/loadtest_smoke.json [--out F]
    kpj serve    --dataset CAL --workers 4 --port 8321 [--prewarm Lake]
    kpj fuzz     --seed 0 --cases 1000 [--shrink] [--self-check]

Each input has one command.  ``query`` answers one hand-named query on
a named dataset and prints the paths; ``batch`` answers a workload
spec's seeded queries as one batch on ``spec.workers`` (the same
validated :class:`~repro.bench.workload.WorkloadSpec` that
``loadtest`` replays open-loop; arrival times, target QPS and the SLO
are ignored) and reports throughput; ``datasets`` lists the registry
(Table-1 style); ``bench`` reproduces one figure and prints its table.
``--stats`` prints the instrumentation counters (search work,
prepared-cache hits/misses) next to the answers, and ``--metrics
json|text`` attaches a :class:`~repro.obs.metrics.MetricsRegistry` and
emits the structured run report (phase wall times, counters, gauges,
and — for batches — p50/p95/p99 query latency); ``batch --metrics
prom`` prints the same registry as Prometheus text exposition, alone
on stdout.  Before it is printed, the registry folds in the solver's
lifetime ``SearchStats`` once, so every format reports the same work
counters as ``--stats``.

Tracing surfaces (see DESIGN.md §3d): ``query --trace`` prints the
span tree and the per-depth
:class:`~repro.obs.subspace_report.SubspaceTreeReport` inline;
``query --trace-out FILE`` writes the span timeline as Chrome
trace-event JSON (load in ``chrome://tracing`` or Perfetto) and
``--folded FILE`` writes it in folded-stack flamegraph format;
``batch --spec W --trace-out DIR`` writes one Chrome trace file per
query of the workload; ``explain`` answers one query with a span
tracer attached and narrates the τ schedule from its ``iterate``
spans (``--tree`` adds the same subspace-tree reconstruction).  Notes
about written files go to stderr, so stdout stays one document.

Any :class:`~repro.exceptions.ReproError` a command raises — an
unknown category, ``--k 0``, a bad workload spec, a file that cannot
be written — exits 2 with its message as one line on stderr.

Work-attribution surfaces (DESIGN.md §3g): ``--log FILE`` on
``query``/``batch`` appends one JSON event per query (stable query id,
latency, non-zero work counters) and ``--slow-ms`` additionally dumps
any threshold-crossing query's full trace + metrics to a file next to
the log; ``--profile FILE`` wraps the run in :mod:`cProfile` and
writes pstats data; ``--memory`` starts tracemalloc and records
per-phase allocation attribution plus process/pool byte gauges;
``report`` renders the committed perf trajectory
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
import os
import sys
from contextlib import contextmanager
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
    query.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the spans as Chrome trace-event JSON to FILE",
    )
    query.add_argument(
        "--folded",
        default=None,
        metavar="FILE",
        help="write the spans in folded-stack flamegraph format to FILE",
    )
    _add_obs_flags(query)

    batch = sub.add_parser(
        "batch", help="answer a workload spec's queries as one batch"
    )
    _add_spec_flag(batch)
    batch.add_argument(
        "--stats", action="store_true", help="print aggregate counters"
    )
    batch.add_argument(
        "--json", action="store_true", help="emit all results as JSON"
    )
    batch.add_argument(
        "--metrics",
        choices=("json", "text", "prom"),
        default=None,
        help="emit the aggregate metrics report with latency percentiles "
        "(prom: Prometheus text exposition, alone on stdout)",
    )
    batch.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="also write one Chrome trace-event file per query into DIR",
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
    _add_spec_flag(loadtest)
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


def _add_spec_flag(sub_parser: argparse.ArgumentParser) -> None:
    """The ``--spec`` workload file read by ``batch`` and ``loadtest``."""
    sub_parser.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="workload spec (.json or .toml; see benchmarks/specs/)",
    )


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


@contextmanager
def _observed(args: argparse.Namespace, trace: bool):
    """Query logger, memory telemetry, metrics registry and span tracer
    from the shared flags: yields ``(query_log, memory, registry,
    tracer)``, each ``None`` when no flag asks for it (``trace`` says
    whether the command's own flags ask for spans); on exit the
    telemetry stops and the log closes, whether the block returns or
    raises."""
    if args.slow_ms is not None and args.log is None:
        raise QueryError("--slow-ms requires --log")
    qlog = mem = reg = tracer = None
    if trace or args.slow_ms is not None:
        # Slow dumps embed the trace, so slow-logging implies tracing.
        from repro.obs.tracing import SpanTracer

        tracer = SpanTracer()
    if args.log:
        from repro.obs.log import QueryLogger

        qlog = QueryLogger(path=args.log, slow_ms=args.slow_ms)
    if args.memory:
        from repro.obs.memory import MemoryTelemetry

        mem = MemoryTelemetry().start()
    if args.metrics or args.memory or args.slow_ms is not None:
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
    try:
        yield qlog, mem, reg, tracer
    finally:
        if mem is not None:
            mem.stop()
        if qlog is not None:
            qlog.close()


def _profiled(path: str | None, fn, *args, **kwargs):
    """Run ``fn``, under :mod:`cProfile` writing pstats data to ``path``
    when one is given."""
    if path is None:
        return fn(*args, **kwargs)
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


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; an I/O failure exits 2, one line."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ReproError(f"cannot write {path!r}: {exc}") from None


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
    import json

    dataset = _dataset_for(args)
    trace = bool(args.trace or args.trace_out or args.folded)
    with _observed(args, trace) as (qlog, mem, reg, tracer):
        solver = KPJSolver(
            dataset.graph,
            dataset.categories,
            landmarks=args.landmarks,
            metrics=reg,
            tracer=tracer,
            query_log=qlog,
            memory=mem,
        )
        result = _profiled(
            args.profile, solver.top_k, args.source,
            category=args.category, k=args.k, algorithm=args.algorithm,
        )
    if reg is not None:
        reg.merge_stats(solver.stats)
    if args.trace_out:
        from repro.obs.tracing import chrome_trace

        doc = chrome_trace(result.trace)
        _write(args.trace_out, json.dumps(doc))
        print(f"# {len(doc['traceEvents'])} spans -> {args.trace_out}",
              file=sys.stderr)
    if args.folded:
        from repro.obs.tracing import folded_stacks

        _write(args.folded, folded_stacks(result.trace) + "\n")
        print(f"# folded stacks -> {args.folded}", file=sys.stderr)
    if args.metrics == "json":
        print(
            json.dumps(
                {"result": result.to_dict(), "metrics": reg.report()}, indent=2
            )
        )
        return 0
    if args.json:
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
        from repro.obs.subspace_report import SubspaceTreeReport
        from repro.obs.tracing import render_tree

        print("spans:")
        print(render_tree(result.trace))
        report = SubspaceTreeReport.from_spans(result.trace)
        if report.rows:
            print(report.render())
    return 0


def _load_spec(path: str):
    """The validated workload spec at ``path``; a bad one exits 2."""
    from repro.bench.workload import load_spec

    try:
        return load_spec(path)
    except QueryError as exc:
        raise QueryError(f"bad workload spec: {exc}") from None


def _cmd_batch(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.bench.loadtest import spec_queries, spec_solver
    from repro.bench.workload import generate_schedule

    spec = _load_spec(args.spec)
    with _observed(args, args.trace_out is not None) as (qlog, mem, reg, tracer):
        # The observers stay attached: the registry records
        # landmark_build, then the batch reports into all of them at any
        # worker count.  Resident workers inherit them through the fork,
        # appending whole lines to one log file (O_APPEND).
        dataset, solver = spec_solver(spec, metrics=reg)
        solver.tracer = tracer
        solver.query_log = qlog
        solver.memory = mem
        # Arrival times, target_qps and the SLO belong to the open-loop
        # replay (`kpj loadtest`); here the schedule is one batch.
        queries = spec_queries(spec, generate_schedule(spec, dataset.n))
        start = time.perf_counter()
        results = _profiled(
            args.profile, solver.solve_batch, queries, workers=spec.workers
        )
        elapsed = time.perf_counter() - start
    throughput = len(results) / elapsed if elapsed else 0.0
    if reg is not None:
        reg.merge_stats(solver.stats)
    if args.trace_out is not None:
        from repro.obs.tracing import chrome_trace

        try:
            os.makedirs(args.trace_out, exist_ok=True)
        except OSError as exc:
            raise ReproError(f"cannot write {args.trace_out!r}: {exc}") from None
        traced = [
            (i, r.trace) for i, r in enumerate(results) if r.trace is not None
        ]
        for i, trace in traced:
            _write(
                os.path.join(args.trace_out, f"query-{i:03d}.trace.json"),
                json.dumps(chrome_trace(trace)),
            )
        print(f"# wrote {len(traced)} trace files to {args.trace_out}",
              file=sys.stderr)
    if args.metrics == "prom":
        sys.stdout.write(reg.render_prom())
        return 0
    if args.metrics == "json":
        latency = reg.histograms.get("query_latency_ms")

        def _q(q: float):
            return latency.quantile(q) if latency and latency.total else None

        report = {
            "spec": spec.as_dict(),
            "queries": len(results),
            "elapsed_s": elapsed,
            "queries_per_s": throughput,
            "latency_ms": {"p50": _q(0.50), "p95": _q(0.95), "p99": _q(0.99)},
            "metrics": reg.report(),
        }
        print(json.dumps(report, indent=2))
        return 0
    if args.json:
        doc = {
            "spec": spec.as_dict(),
            "elapsed_s": elapsed,
            "queries_per_s": throughput,
            **({"stats": solver.stats.as_dict()} if args.stats else {}),
            "results": [
                {"source": q.source, "category": q.category, "k": q.k,
                 **r.to_dict()}
                for q, r in zip(queries, results)
            ],
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(
        f"{len(results)} queries of spec {spec.name!r} on {spec.dataset} "
        f"({spec.algorithm}, workers={spec.workers}):"
    )
    for query, result in zip(queries, results):
        best = f"{result.paths[0].length:.4f}" if result.paths else "-"
        print(
            f"  source {query.source:>6} to {query.category!r} k={query.k}: "
            f"{result.k_found:>3} paths, best {best}"
        )
    print(f"elapsed {elapsed * 1000.0:.1f}ms  ({throughput:.1f} queries/s)")
    if args.stats:
        _print_stats(solver.stats)
    if args.metrics == "text":
        print(reg.render_text())
    if args.memory and args.metrics is None:
        _print_memory(reg)
    return 0


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
    from repro.obs.tracing import SpanTracer, render_narrative

    dataset = _dataset_for(args)
    solver = KPJSolver(
        dataset.graph,
        dataset.categories,
        landmarks=args.landmarks,
        tracer=SpanTracer(),
    )
    result = solver.top_k(
        args.source, category=args.category, k=args.k, algorithm=args.algorithm
    )
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


def _cmd_report(args: argparse.Namespace) -> int:
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
        _write(args.out, doc)
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

    spec = _load_spec(args.spec)
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
    prewarm = tuple(
        c.strip() for c in (args.prewarm or "").split(",") if c.strip()
    )
    for category in prewarm:
        # The service skips a prewarm item it cannot prepare; a name
        # given on the command line must resolve (unknown -> exit 2).
        dataset.categories.nodes_of(category)
    solver = KPJSolver(
        dataset.graph,
        dataset.categories,
        landmarks=args.landmarks,
        prepared_cache_size=args.prepared_cache,
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
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``kpj ... | head``).  Point stdout at
        # devnull so the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
