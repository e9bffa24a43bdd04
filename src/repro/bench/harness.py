"""Timing harness for the experiment suite.

Wraps a :class:`~repro.core.kpj.KPJSolver` with query batches and
wall-clock measurement, and defines the result containers the
reporting layer renders (a *figure* is a set of labelled series over a
shared x-axis, exactly like the paper's plots).

Solvers (and their landmark indexes) are cached per dataset so a
benchmark session pays the offline cost once, mirroring the paper's
offline/online split.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.core.kpj import KPJSolver
from repro.core.stats import SearchStats
from repro.datasets.queries import QueryWorkload, stratified_sources
from repro.datasets.registry import RoadNetwork, road_network

__all__ = [
    "Series",
    "FigureResult",
    "solver_for",
    "workload_for",
    "time_query_batch",
    "BatchTiming",
]


@dataclass
class BatchTiming:
    """Aggregate of one timed batch of queries."""

    mean_ms: float
    median_ms: float
    total_ms: float
    queries: int
    stats: SearchStats


@dataclass
class Series:
    """One line of a figure: a label and (x, milliseconds) points."""

    label: str
    points: list[tuple[str, float]] = field(default_factory=list)

    def add(self, x: str, value_ms: float) -> None:
        """Append a point."""
        self.points.append((x, value_ms))


@dataclass
class FigureResult:
    """A reproduced figure: labelled series over a shared x-axis."""

    figure: str
    title: str
    x_label: str
    series: list[Series] = field(default_factory=list)
    notes: str = ""

    def new_series(self, label: str) -> Series:
        """Create, register, and return a fresh series."""
        series = Series(label)
        self.series.append(series)
        return series


@lru_cache(maxsize=None)
def solver_for(
    dataset: str, landmarks: int | None = 16, seed: int = 0
) -> tuple[RoadNetwork, KPJSolver]:
    """Dataset + solver, cached across benchmarks in one process."""
    network = road_network(dataset, seed=seed)
    solver = KPJSolver(network.graph, network.categories, landmarks=landmarks, seed=seed)
    return network, solver


@lru_cache(maxsize=None)
def workload_for(
    dataset: str, category: str, per_group: int = 20, seed: int = 0
) -> QueryWorkload:
    """Stratified ``Q1..Q5`` source groups, cached."""
    network = road_network(dataset, seed=seed)
    return stratified_sources(
        network.graph, network.categories, category, per_group=per_group, seed=seed
    )


def time_query_batch(
    solver: KPJSolver,
    sources: Sequence[int],
    category: str,
    k: int,
    algorithm: str,
    alpha: float = 1.1,
) -> BatchTiming:
    """Run one query per source and aggregate the solver-recorded times.

    Per-query wall time comes from ``QueryResult.elapsed_ms`` (the
    solver times itself now) rather than a harness-side stopwatch, so
    a benchmark measures exactly what serving measures.
    """
    times: list[float] = []
    stats = SearchStats()
    for source in sources:
        result = solver.top_k(
            source, category=category, k=k, algorithm=algorithm, alpha=alpha
        )
        times.append(result.elapsed_ms)
        stats.merge(result.stats)
    return BatchTiming(
        mean_ms=statistics.fmean(times),
        median_ms=statistics.median(times),
        total_ms=sum(times),
        queries=len(times),
        stats=stats,
    )
