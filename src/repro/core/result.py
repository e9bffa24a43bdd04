"""Result types returned by every solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.stats import SearchStats

__all__ = ["Path", "QueryResult"]


@dataclass(frozen=True, order=True)
class Path:
    """A simple path and its length.

    Ordered by ``(length, nodes)`` so result lists sort the way the
    paper ranks paths (non-decreasing length, ties broken
    deterministically).
    """

    length: float
    nodes: tuple[int, ...]

    def to_dict(self) -> dict:
        """JSON-ready representation (``{"length": ..., "nodes": [...]}``)."""
        return {"length": self.length, "nodes": list(self.nodes)}

    @property
    def source(self) -> int:
        """First node of the path."""
        return self.nodes[0]

    @property
    def destination(self) -> int:
        """Last node of the path."""
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)


@dataclass
class QueryResult:
    """The answer to one KPJ / KSP / GKPJ query.

    Attributes
    ----------
    paths:
        At most ``k`` paths, non-decreasing in length.  Fewer than
        ``k`` means the graph contains fewer simple paths to the
        destination set.
    algorithm:
        Registry name of the algorithm that produced the answer.
    stats:
        Instrumentation counters (shortest-path computations, settled
        nodes, ...) — the quantities Lemma 4.1 reasons about.
    elapsed_ms:
        End-to-end wall clock of the query, measured once inside the
        solver — every surface (CLI, bench harness, batch reports)
        reads this one number instead of re-timing the call.
    metrics:
        Per-query :meth:`~repro.obs.metrics.MetricsRegistry.as_dict`
        snapshot (phase timers, gauges) when the solver has metrics
        enabled; ``None`` otherwise.  A plain dict so it crosses the
        worker process boundary like the stats counters do.
    trace:
        The query's event record, ``{"pid", "events": [(name, start,
        end, attrs), ...]}`` (:mod:`repro.obs.tracing`), when the solver
        has a tracer attached; ``None`` otherwise.  Plain data, so
        resident workers ship it back with the result.
    query_id:
        Stable id minted by the solver for this query
        (:func:`~repro.obs.log.new_query_id`), the join key between
        log events, slow-query dumps, trace trees, and batch reports.
        A plain string, so it too survives the fork boundary.
    timing:
        Serving-side timestamps stamped by
        :func:`~repro.server.service.run_batch`, the resident
        :class:`~repro.server.service.QueryService`, and the load-test
        replay engine: ``enqueued_at_s``/``started_at_s`` in
        ``perf_counter`` seconds — the clock of the events in
        :attr:`trace`, one machine-wide monotonic clock under fork —
        plus the derived ``queue_wait_s``, so queue wait is
        attributable separately from the service time in
        :attr:`elapsed_ms`.  ``None`` outside batch/service/load-test
        serving.  A plain dict — workers stamp their half
        (``started_at_s``) and the parent adds the enqueue side after
        results cross the fork boundary.
    """

    paths: list[Path]
    algorithm: str
    stats: SearchStats = field(default_factory=SearchStats)
    elapsed_ms: float = 0.0
    metrics: dict | None = None
    trace: dict | None = None
    query_id: str | None = None
    timing: dict | None = None

    def to_dict(self) -> dict:
        """JSON-ready representation including stats counters."""
        out = {
            "algorithm": self.algorithm,
            "elapsed_ms": self.elapsed_ms,
            "paths": [p.to_dict() for p in self.paths],
            "stats": self.stats.as_dict(),
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        if self.trace is not None:
            out["trace"] = self.trace
        if self.query_id is not None:
            out["query_id"] = self.query_id
        if self.timing is not None:
            out["timing"] = self.timing
        return out

    @property
    def lengths(self) -> tuple[float, ...]:
        """The path lengths, in order."""
        return tuple(p.length for p in self.paths)

    @property
    def k_found(self) -> int:
        """Number of paths actually found."""
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)
