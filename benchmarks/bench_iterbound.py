"""IterBound engine benchmark (BENCH_iterbound.json).

Not a paper figure — this times the *query path* of every registry
algorithm on COL and appends a per-query latency entry, stamped by
:func:`repro.bench.trajectory.stamp` (sha, dirty flag, date, Python,
host), to ``benchmarks/results/BENCH_iterbound.json``:

* every algorithm in :data:`repro.core.kpj.ALGORITHMS`, per-query
  p50/p95 over the timed sources (the ``flat`` column: the one search
  substrate);
* the headline ``IterBound-SPT_I`` numbers over the **full** T2
  workload (all five groups), per group and aggregate.

Every algorithm must return the same length multiset as every other
for each timed query before its numbers are recorded.

Timing protocol: one untimed warm-up pass per configuration (fills
the landmark and prepared-category caches and the scratch pools),
then best-of-``R`` reps per query (``REPRO_BENCH_REPS``, default 3)
to suppress scheduler noise; p50/p95 are taken across the per-query
best times.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import pytest

from repro.bench.harness import solver_for, workload_for
from repro.bench.trajectory import append, stamp
from repro.core.kpj import ALGORITHMS

RESULTS_DIR = Path(__file__).parent / "results"

K = 20
REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))
# Sources per workload group for the all-algorithms sweep (the
# headline SPT_I comparison always runs the full workload).
SWEEP_PER_GROUP = int(os.environ.get("REPRO_BENCH_SWEEP_SOURCES", "2"))

GROUPS = ("Q1", "Q2", "Q3", "Q4", "Q5")


def _setup():
    network, solver = solver_for("COL")
    workload = workload_for("COL", "T2")
    return network, solver, workload


def _percentiles(seconds: list[float]) -> dict[str, float]:
    ordered = sorted(seconds)
    p95_at = min(len(ordered) - 1, round(0.95 * (len(ordered) - 1)))
    return {
        "queries": len(ordered),
        "p50_ms": statistics.median(ordered) * 1e3,
        "p95_ms": ordered[p95_at] * 1e3,
        "mean_ms": statistics.fmean(ordered) * 1e3,
    }


def _best_of(fn, reps: int = REPS) -> tuple[float, object]:
    """Best wall-clock of ``reps`` runs and the (identical) result."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best, result


def _length_key(paths) -> list[float]:
    return sorted(round(p.length, 9) for p in paths)


def test_iterbound_engine_report():
    """Per-query p50/p95 of every registry algorithm plus the
    ``SPT_I`` headline; asserts the algorithms agree on every answer
    and appends the entry to ``BENCH_iterbound.json``.
    """
    network, solver, workload = _setup()
    destinations = workload.destinations

    report: dict = {
        **stamp(),
        "dataset": "COL",
        "n": network.graph.n,
        "m": network.graph.m,
        "k": K,
        "workload": {
            "category": "T2",
            "destinations": len(destinations),
            "groups": {g: len(workload.group(g)) for g in GROUPS},
        },
        "protocol": {
            "reps_best_of": REPS,
            "warmup_passes": 1,
            "sweep_sources_per_group": SWEEP_PER_GROUP,
        },
        "algorithms": {},
    }

    def timed(sources, algorithm) -> tuple[list[float], list]:
        for source in sources:  # warm-up: caches + allocator
            solver.top_k(source, destinations=destinations, k=K, algorithm=algorithm)
        times, answers = [], []
        for source in sources:
            dt, result = _best_of(
                lambda s=source: solver.top_k(
                    s, destinations=destinations, k=K, algorithm=algorithm
                )
            )
            times.append(dt)
            answers.append(_length_key(result.paths))
        return times, answers

    # ------------------------------------------------------------------
    # All-algorithms sweep; every algorithm must agree on every answer.
    # ------------------------------------------------------------------
    sweep_sources = [s for g in GROUPS for s in workload.group(g)[:SWEEP_PER_GROUP]]
    reference = None
    for algorithm in ALGORITHMS:
        times, answers = timed(sweep_sources, algorithm)
        if reference is None:
            reference = answers
        assert answers == reference, algorithm
        report["algorithms"][algorithm] = {"flat": _percentiles(times)}

    # ------------------------------------------------------------------
    # Headline: IterBound-SPT_I over the full workload, per group and
    # aggregate.
    # ------------------------------------------------------------------
    headline: dict = {"groups": {}}
    all_times: list[float] = []
    for group in GROUPS:
        times, _ = timed(workload.group(group), "iter-bound-spti")
        all_times += times
        headline["groups"][group] = _percentiles(times)
    headline["all"] = _percentiles(all_times)
    report["iter_bound_spti"] = headline

    append(RESULTS_DIR / "BENCH_iterbound.json", report)

    print(f"\nIterBound-SPT_I (COL/T2, k={K}):")
    for group, numbers in headline["groups"].items():
        print(f"  {group}: p50 {numbers['p50_ms']:.2f} ms  p95 {numbers['p95_ms']:.2f} ms")
    print(
        f"  ALL: p50 {headline['all']['p50_ms']:.2f} ms"
        f"  p95 {headline['all']['p95_ms']:.2f} ms"
    )


if __name__ == "__main__":  # pragma: no cover - manual convenience
    pytest.main([__file__, "-s", "-x"])
