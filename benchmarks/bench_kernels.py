"""Micro-benchmarks of the shortest-path substrate.

Not a paper figure — these isolate the kernels every algorithm is
built from, so a regression here explains a regression everywhere:
full Dijkstra, goal-directed A*, bounded A* (TestLB), the full-SPT
build (DA-SPT's fixed cost), the two halves of a prepared-cache miss
(the Eq. (2) bound vector and the ``G_Q`` overlay), and the batch-API
saving from reusing them.

``test_kernel_comparison_report`` additionally times the whole-graph
SSSP on scipy's C loop (where installed) against the pure-Python loop
the scipy-free stack runs, checks the distances agree, and appends a
stamped entry (:func:`repro.bench.trajectory.stamp`: sha, dirty flag,
date, Python, host) to ``benchmarks/results/BENCH_kernels.json``
(queries/sec per path plus the ratio).  ``test_compiled_tier_report``
does the same for the compiled tier (:mod:`repro.native`) against the
pure-Python search loops, and fails if the tier built yet is not
:data:`NATIVE_SPEEDUP_FLOOR` times faster.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro import native
from repro.bench.harness import solver_for, workload_for
from repro.bench.trajectory import append, stamp
from repro.core.flat_engine import CompiledIncrementalSPT, FlatIncrementalSPT
from repro.core.stats import SearchStats
from repro.graph.virtual import build_query_graph
from repro.pathing.astar import astar_path, bounded_astar_path
from repro.pathing.dijkstra import single_source_distances
from repro.pathing.spt import build_spt_to_target

RESULTS_DIR = Path(__file__).parent / "results"

#: ROADMAP item 5's gate: each compiled kernel at least this many
#: times faster than the pure-Python loop it replaces.
NATIVE_SPEEDUP_FLOOR = 3.0


def _setup():
    network, solver = solver_for("COL")
    workload = workload_for("COL", "T2")
    return network, solver, workload


def test_dijkstra_full_sssp(benchmark):
    """One full single-source run on COL (the landmark-build unit)."""
    network, _, workload = _setup()
    source = workload.group("Q3")[0]
    benchmark.pedantic(
        lambda: single_source_distances(network.graph, source),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )


def test_astar_point_to_point(benchmark):
    """Goal-directed A* with the landmark heuristic on COL."""
    network, solver, workload = _setup()
    source = workload.group("Q5")[0]
    target = network.categories.nodes_of("T2")[0]
    bounds = solver.landmark_index.to_target_bounds((target,))
    benchmark.pedantic(
        lambda: astar_path(network.graph, source, target, bounds),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )


def test_bounded_astar_failing_test(benchmark):
    """A failing TestLB (the common, cheap case of IterBound)."""
    network, solver, workload = _setup()
    source = workload.group("Q5")[0]
    target = network.categories.nodes_of("T2")[0]
    bounds = solver.landmark_index.to_target_bounds((target,))
    tau = bounds(source) * 0.9  # below the true distance: must fail fast
    benchmark.pedantic(
        lambda: bounded_astar_path(
            network.graph, source, target, bounds, bound=tau
        ),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )


def test_full_spt_build(benchmark):
    """DA-SPT's fixed per-query cost: the full SPT on COL's G_Q."""
    from repro.graph.virtual import build_query_graph

    network, _, workload = _setup()
    source = workload.group("Q3")[0]
    qg = build_query_graph(
        network.graph, (source,), network.categories.nodes_of("T2")
    )
    benchmark.pedantic(
        lambda: build_spt_to_target(qg.graph, qg.target),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )


def test_eq2_bound_vector(benchmark):
    """The per-query O(|L| n) Eq. (2) initialisation on COL."""
    network, solver, _ = _setup()
    targets = network.categories.nodes_of("T2")
    benchmark.pedantic(
        lambda: solver.landmark_index.to_target_bounds(targets),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )


def test_query_graph_overlay(benchmark):
    """The other half of a prepared-cache miss: the ``G_Q`` overlay
    for COL's T2 destinations, O(|V_T|) beside Eq. (2)'s O(|L| n)."""
    from repro.graph.virtual import build_query_graph

    network, _, workload = _setup()
    source = workload.group("Q3")[0]
    targets = network.categories.nodes_of("T2")
    benchmark.pedantic(
        lambda: build_query_graph(network.graph, (source,), targets),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )


def test_prepared_batch_queries(benchmark):
    """Five IterBound_I queries through the prepared-category API."""
    _, solver, workload = _setup()
    sources = workload.group("Q3")[:5]

    def run():
        prepared = solver.prepare(category="T2")
        for source in sources:
            prepared.top_k(source, k=20)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)


# ----------------------------------------------------------------------
# scipy vs pure-Python whole-graph sweep
# ----------------------------------------------------------------------


def _time_kernel(fn, rounds: int) -> float:
    """Best-of-``rounds`` wall-clock seconds for one call of ``fn``."""
    fn()  # warmup (also primes lazy CSR/landmark caches)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_comparison_report(monkeypatch):
    """Time the SSSP sweep on COL both ways; append to BENCH_kernels.json.

    Also asserts both paths agree on every distance, so the numbers
    are for *identical* answers.
    """
    from repro.pathing import flat

    network, _, workload = _setup()
    sources = workload.group("Q3")[:3]

    def run():
        return [single_source_distances(network.graph, s) for s in sources]

    report = {
        **stamp(),
        "dataset": "COL", "n": network.graph.n, "scipy": flat.HAVE_SCIPY,
        "kernels": {},
    }
    answers = {}
    for name, scipy in (("flat", flat.HAVE_SCIPY), ("python_loop", False)):
        monkeypatch.setattr(flat, "HAVE_SCIPY", scipy)
        answers[name] = run()
        seconds = _time_kernel(run, rounds=3)
        report["kernels"][name] = {
            "sssp_seconds_per_query": seconds / len(sources),
            "sssp_queries_per_s": len(sources) / seconds,
        }
    monkeypatch.undo()
    for got, expected in zip(answers["flat"], answers["python_loop"]):
        assert np.array_equal(np.asarray(got), np.asarray(expected))
    ratio = (
        report["kernels"]["python_loop"]["sssp_seconds_per_query"]
        / report["kernels"]["flat"]["sssp_seconds_per_query"]
    )
    report["flat_speedup_over_python_loop"] = ratio

    out = RESULTS_DIR / "BENCH_kernels.json"
    append(out, report)
    print(f"\nSSSP on COL, scipy over the Python loop: {ratio:.2f}x  -> {out}")


# ----------------------------------------------------------------------
# The compiled tier vs the pure-Python search loops
# ----------------------------------------------------------------------


def test_compiled_tier_report():
    """Time two kernels on COL on both tiers; append to BENCH_kernels.json.

    * ``spti_initial`` — the initial build of Alg. 7's tree (the settle
      loop up to the virtual target) from three ``Q3`` sources toward
      ``T1``, on a warm Eq. (2) vector: :class:`CompiledIncrementalSPT`
      against :class:`FlatIncrementalSPT`;
    * ``cache_miss`` — the same builds, each on a fresh
      ``to_target_bounds``: Eq. (2) plus the settle loop, what a
      prepared-cache miss costs ``SPT_I``.

    Both tiers must build the same trees (first path, length, size,
    work counters).  Where the tier built, each kernel must beat pure
    Python by :data:`NATIVE_SPEEDUP_FLOOR`.
    """
    network, solver, _ = _setup()
    index = solver.landmark_index
    targets = network.categories.nodes_of("T1")
    sources = workload_for("COL", "T1").group("Q3")[:3]
    graphs = [build_query_graph(network.graph, (s,), targets) for s in sources]
    warm = index.to_target_bounds(graphs[0].destinations)

    def build(tree_class, fresh_bounds: bool):
        trees = []
        for qg in graphs:
            bounds = index.to_target_bounds(qg.destinations) if fresh_bounds else warm
            stats = SearchStats()
            tree = tree_class(qg, bounds, stats)
            trees.append((tree.build_initial(qg.target), len(tree), stats.as_dict()))
            tree.close()
        return trees

    tiers = {"python": FlatIncrementalSPT}
    if native.HAVE_NATIVE:
        tiers["native"] = CompiledIncrementalSPT
    report = {
        **stamp(),
        "bench": "compiled_tier", "dataset": "COL", "n": network.graph.n,
        "native": native.HAVE_NATIVE, "kernels": {},
    }
    answers = {}
    for tier, tree_class in tiers.items():
        answers[tier] = build(tree_class, False)
        report["kernels"][tier] = {
            f"{name}_seconds_per_query": _time_kernel(
                lambda: build(tree_class, fresh), rounds=5
            )
            / len(graphs)
            for name, fresh in (("spti_initial", False), ("cache_miss", True))
        }
    if native.HAVE_NATIVE:
        assert answers["native"] == answers["python"]
        speedups = {
            name: report["kernels"]["python"][f"{name}_seconds_per_query"]
            / report["kernels"]["native"][f"{name}_seconds_per_query"]
            for name in ("spti_initial", "cache_miss")
        }
        report["native_speedup_over_python"] = speedups
    out = RESULTS_DIR / "BENCH_kernels.json"
    append(out, report)
    if native.HAVE_NATIVE:
        print(f"\ncompiled tier on COL over pure Python: {speedups}  -> {out}")
        for name, speedup in speedups.items():
            assert speedup >= NATIVE_SPEEDUP_FLOOR, (name, speedup)
