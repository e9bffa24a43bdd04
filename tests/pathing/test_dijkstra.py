"""Unit tests for Dijkstra and its constrained variant."""

import random

import pytest

from repro.core.stats import SearchStats
from repro.graph.digraph import DiGraph
from repro.pathing import flat
from repro.pathing.dijkstra import (
    constrained_shortest_path,
    multi_source_distances,
    single_source_distances,
)
from tests.conftest import random_graph

INF = float("inf")


class TestSingleSource:
    def test_line_graph(self, line_graph):
        assert single_source_distances(line_graph, 0) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_unreachable_is_inf(self):
        g = DiGraph.from_edges(3, [(0, 1, 1.0)])
        dist = single_source_distances(g, 0)
        assert dist[2] == INF

    def test_direction_matters(self):
        g = DiGraph.from_edges(2, [(0, 1, 1.0)])
        assert single_source_distances(g, 1)[0] == INF

    def test_cutoff_stops_early(self, line_graph):
        dist = single_source_distances(line_graph, 0, cutoff=2.0)
        assert dist[:3] == [0.0, 1.0, 2.0]
        assert dist[4] == INF

    def test_picks_lighter_route(self, diamond_graph):
        dist = single_source_distances(diamond_graph, 0)
        assert dist[3] == 2.0


class TestMultiSource:
    def test_nearest_source_wins(self, line_graph):
        dist = multi_source_distances(line_graph, (0, 4))
        assert dist == [0.0, 1.0, 2.0, 1.0, 0.0]

    def test_duplicate_sources_ok(self, line_graph):
        dist = multi_source_distances(line_graph, (2, 2))
        assert dist[2] == 0.0
        assert dist[0] == 2.0


class TestShortestPath:
    def test_returns_path_and_length(self, diamond_graph):
        path, length = constrained_shortest_path(diamond_graph, 0, 3)
        assert path == (0, 1, 3)
        assert length == 2.0

    def test_source_equals_target(self, diamond_graph):
        assert constrained_shortest_path(diamond_graph, 2, 2) == ((2,), 0.0)

    def test_unreachable_returns_none(self):
        g = DiGraph.from_edges(3, [(0, 1, 1.0)])
        assert constrained_shortest_path(g, 0, 2) is None

    def test_matches_distance_array_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng)
            src = rng.randrange(g.n)
            dist = single_source_distances(g, src)
            for target in range(g.n):
                found = constrained_shortest_path(g, src, target)
                if dist[target] == INF:
                    assert found is None
                else:
                    path, length = found
                    assert length == pytest.approx(dist[target])
                    assert g.path_weight(path) == pytest.approx(length)
                    assert path[0] == src and path[-1] == target


class TestConstrained:
    def test_blocked_node_forces_detour(self, diamond_graph):
        path, length = constrained_shortest_path(diamond_graph, 0, 3, blocked={1})
        assert path == (0, 2, 3)
        assert length == 3.0

    def test_banned_first_hop(self, diamond_graph):
        path, length = constrained_shortest_path(
            diamond_graph, 0, 3, banned_first_hops={1}
        )
        assert path == (0, 2, 3)

    def test_ban_applies_only_to_first_hop(self):
        # 0 -> 1 -> 2 -> 1? no; build: banning node 1 as first hop still
        # allows reaching it later through another route.
        g = DiGraph.from_edges(
            4, [(0, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0)]
        )
        path, length = constrained_shortest_path(g, 0, 3, banned_first_hops={1})
        assert path == (0, 2, 1, 3)
        assert length == 3.0

    def test_initial_distance_added(self, diamond_graph):
        _, length = constrained_shortest_path(
            diamond_graph, 0, 3, initial_distance=10.0
        )
        assert length == 12.0

    def test_fully_blocked_returns_none(self, diamond_graph):
        assert (
            constrained_shortest_path(diamond_graph, 0, 3, blocked={1, 2}) is None
        )

    def test_stats_counters_increment(self, diamond_graph):
        stats = SearchStats()
        constrained_shortest_path(diamond_graph, 0, 3, stats=stats)
        assert stats.nodes_settled >= 2
        assert stats.edges_relaxed >= 2


class TestCutoffBoundary:
    """The cutoff contract is INCLUSIVE: d(v) == cutoff is settled."""

    def test_node_exactly_at_cutoff_is_settled(self, line_graph):
        dist = single_source_distances(line_graph, 0, cutoff=2.0)
        assert dist[2] == 2.0  # exactly at the boundary -> kept
        assert dist[3] == INF  # strictly beyond -> pruned

    def test_inclusive_on_both_kernels(self, line_graph, monkeypatch):
        # The whole-graph kernels: scipy's C loop (where installed) and
        # the Python loop of the scipy-free stack.
        for scipy in (flat.HAVE_SCIPY, False):
            monkeypatch.setattr(flat, "HAVE_SCIPY", scipy)
            dist = single_source_distances(line_graph.freeze(), 0, cutoff=3.0)
            assert dist[3] == 3.0, scipy
            assert dist[4] == INF, scipy

    def test_multi_source_cutoff_inclusive(self, line_graph):
        dist = multi_source_distances(line_graph, (0,), cutoff=1.0)
        assert dist[1] == 1.0
        assert dist[2] == INF


class TestBlockedEndpoints:
    def test_blocked_source_raises(self, diamond_graph):
        from repro.exceptions import QueryError

        with pytest.raises(QueryError, match="source"):
            constrained_shortest_path(diamond_graph, 0, 3, blocked={0})

    def test_blocked_target_raises(self, diamond_graph):
        from repro.exceptions import QueryError

        with pytest.raises(QueryError, match="target"):
            constrained_shortest_path(diamond_graph, 0, 3, blocked={3})
