"""Micro-benchmarks of the shortest-path substrate.

Not a paper figure — these isolate the kernels every algorithm is
built from, so a regression here explains a regression everywhere:
full Dijkstra, goal-directed A*, bounded A* (TestLB), the full-SPT
build (DA-SPT's fixed cost), the two halves of a prepared-cache miss
(the Eq. (2) bound vector and the ``G_Q`` overlay), and the batch-API
saving from reusing them.

``test_kernel_comparison_report`` additionally times the ``dict``
and ``flat`` kernels head-to-head, checks the results agree, and
writes a machine-readable summary to
``benchmarks/results/BENCH_kernels.json`` (queries/sec per kernel
plus the speedup ratio).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import solver_for, workload_for
from repro.pathing.astar import astar_path, bounded_astar_path
from repro.pathing.dijkstra import single_source_distances
from repro.pathing.spt import build_spt_to_target

RESULTS_DIR = Path(__file__).parent / "results"


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
# dict vs flat kernel comparison
# ----------------------------------------------------------------------


def test_flat_dijkstra_full_sssp(benchmark):
    """The flat-kernel counterpart of ``test_dijkstra_full_sssp``."""
    network, _, workload = _setup()
    source = workload.group("Q3")[0]
    # Prime the CSR export so the benchmark measures the solve alone.
    single_source_distances(network.graph, source, kernel="flat")
    benchmark.pedantic(
        lambda: single_source_distances(network.graph, source, kernel="flat"),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )


def test_flat_full_spt_build(benchmark):
    """The flat-kernel counterpart of ``test_full_spt_build``."""
    from repro.graph.virtual import build_query_graph

    network, _, workload = _setup()
    source = workload.group("Q3")[0]
    qg = build_query_graph(
        network.graph, (source,), network.categories.nodes_of("T2")
    )
    build_spt_to_target(qg.graph, qg.target, kernel="flat")
    benchmark.pedantic(
        lambda: build_spt_to_target(qg.graph, qg.target, kernel="flat"),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )


def _time_kernel(fn, rounds: int) -> float:
    """Best-of-``rounds`` wall-clock seconds for one call of ``fn``."""
    fn()  # warmup (also primes lazy CSR/landmark caches)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_comparison_report():
    """Time every kernel's SSSP on COL and write BENCH_kernels.json.

    Also asserts all substrates agree on every distance, so the
    speedup numbers are for *identical* answers.
    """
    from repro.pathing.kernels import KERNELS

    network, _, workload = _setup()
    sources = workload.group("Q3")[:3]

    dist_dict = single_source_distances(network.graph, sources[0], kernel="dict")
    for kernel in KERNELS[1:]:
        dist = single_source_distances(
            network.graph, sources[0], kernel=kernel
        )
        assert np.array_equal(
            np.asarray(dist_dict), np.asarray(dist)
        ), f"{kernel} and dict SSSP disagree on COL"

    report = {"dataset": "COL", "n": network.graph.n, "kernels": {}}
    for kernel in KERNELS:

        def run(kernel=kernel):
            for source in sources:
                single_source_distances(network.graph, source, kernel=kernel)

        seconds = _time_kernel(run, rounds=3)
        report["kernels"][kernel] = {
            "sssp_seconds_per_query": seconds / len(sources),
            "sssp_queries_per_s": len(sources) / seconds,
        }

    per_query = {
        kernel: report["kernels"][kernel]["sssp_seconds_per_query"]
        for kernel in KERNELS
    }
    ratio = per_query["dict"] / per_query["flat"]
    report["flat_speedup_over_dict"] = ratio

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_kernels.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nflat vs dict SSSP on COL: {ratio:.2f}x  -> {out}")

    from repro.pathing.flat import HAVE_SCIPY

    if HAVE_SCIPY:
        assert ratio >= 2.0, (
            f"flat kernel only {ratio:.2f}x over dict on COL SSSP "
            "(acceptance floor is 2x)"
        )
