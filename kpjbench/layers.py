"""Per-query solver layer totals, merged exactly once per query.

Fed with each answer's own ``SearchStats`` counters and per-query
``MetricsRegistry`` snapshot (``QueryResult.stats`` / ``.metrics``, or
the same fields of an HTTP response body), never with a registry that
already merged them, so no phase is counted twice.
"""

from __future__ import annotations

from collections import Counter

from measure import ratio

#: Phases the solver records per query; together with the
#: benchmark's own spans they tile a query's wall time.
SEARCH_PHASES = ("comp_sp", "test_lb", "spt_grow", "division", "search_other")
PHASES = ("prepare",) + SEARCH_PHASES


class SolverLayers:
    def __init__(self) -> None:
        self.queries = 0
        self.queries_counted = 0  # the solver's own "queries" counter
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self.calls = dict.fromkeys(PHASES, 0)
        self.stats: Counter = Counter()
        self.prepare_ms: list[float] = []

    def add(self, stats: dict, snapshot: dict) -> None:
        self.queries += 1
        self.queries_counted += snapshot.get("counters", {}).get("queries", 0)
        phases = snapshot.get("phases", {})
        for name in PHASES:
            seconds, calls = phases.get(name, (0.0, 0))
            self.seconds[name] += seconds
            self.calls[name] += calls
        self.prepare_ms.append(phases.get("prepare", (0.0, 0))[0] * 1e3)
        self.stats.update(stats)

    @property
    def attributed_s(self) -> float:
        return sum(self.seconds.values())

    def counts_consistent(self) -> bool:
        """Every query counted once, and the once-per-query phases
        called once per query."""
        n = self.queries
        return (
            self.queries_counted == n
            and self.calls["search_other"] == n
            and self.calls["prepare"] == n
        )

    def metrics(self) -> dict[str, float]:
        n = max(self.queries, 1)
        s = self.stats
        out = {f"search.{name}_ms": self.seconds[name] * 1e3 / n for name in SEARCH_PHASES}
        out["search.other_ms"] = out.pop("search.search_other_ms")
        out.update({
            "search.lb_tests": s["lb_tests"] / n,
            "search.lb_test_hit_ratio": ratio(s["lb_test_hits"], s["lb_tests"]),
            "search.subspaces_created": s["subspaces_created"] / n,
            "search.prune_ratio": ratio(s["subspaces_pruned"], s["subspaces_created"]),
            "search.spt_nodes": s["spt_nodes"] / n,
            "search.sp_computations": s["shortest_path_computations"] / n,
            "pathing.nodes_settled": s["nodes_settled"] / n,
            "pathing.edges_relaxed": s["edges_relaxed"] / n,
            "pathing.heap_pushes": s["heap_pushes"] / n,
            "pathing.heap_pops": s["heap_pops"] / n,
        })
        return out
