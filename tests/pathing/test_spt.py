"""Unit tests for full and partial shortest-path trees."""

import random

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.virtual import build_query_graph
from repro.pathing.dijkstra import single_source_distances
from repro.pathing.spt import build_partial_spt, build_spt_to_target
from tests.conftest import random_graph

INF = float("inf")


def zero(_):
    return 0.0


class TestFullSPT:
    def test_distances_match_reverse_dijkstra(self):
        rng = random.Random(21)
        for _ in range(10):
            g = random_graph(rng)
            target = rng.randrange(g.n)
            spt = build_spt_to_target(g, target)
            expected = single_source_distances(g.reversed_copy(), target)
            for v in range(g.n):
                assert spt.distance(v) == pytest.approx(expected[v])

    def test_tree_paths_are_valid_and_optimal(self):
        rng = random.Random(22)
        g = random_graph(rng, min_nodes=8, max_nodes=12)
        target = 0
        spt = build_spt_to_target(g, target)
        for v in range(g.n):
            path = spt.path_from(v)
            if spt.distance(v) == INF:
                assert path is None
                continue
            assert path[0] == v
            assert path[-1] == target
            assert g.path_weight(path) == pytest.approx(spt.distance(v))

    def test_contains(self, diamond_graph):
        spt = build_spt_to_target(diamond_graph, 3)
        assert 0 in spt
        assert 3 in spt

    def test_unreachable_node(self):
        g = DiGraph.from_edges(3, [(0, 1, 1.0)])
        spt = build_spt_to_target(g, 1)
        assert spt.distance(2) == INF
        assert 2 not in spt
        assert spt.path_from(2) is None

    def test_target_path_is_trivial(self, diamond_graph):
        spt = build_spt_to_target(diamond_graph, 3)
        assert spt.path_from(3) == (3,)
        assert spt.distance(3) == 0.0


class TestCanonicalTree:
    """The SPT *tree* — not just the distances — is kernel-independent."""

    def _tie_graph(self, seed: int) -> DiGraph:
        # Small weight range with zeros allowed: maximises equal-length
        # ties, the regime where relaxation order used to leak into the
        # successor pointers.
        rng = random.Random(seed)
        n = rng.randint(6, 12)
        g = DiGraph(n)
        seen: set[tuple[int, int]] = set()
        for _ in range(rng.randint(2 * n, 4 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (u, v) in seen:
                continue
            seen.add((u, v))
            g.add_edge(u, v, float(rng.randint(0, 2)))
        return g.freeze()

    def test_identical_across_kernels_under_ties(self):
        for seed in range(51, 71):
            g = self._tie_graph(seed)
            target = g.n - 1
            dict_tree = build_spt_to_target(g, target, kernel="dict")
            flat_tree = build_spt_to_target(g, target, kernel="flat")
            assert list(flat_tree.dist) == list(dict_tree.dist), seed
            assert flat_tree.next_hop == dict_tree.next_hop, seed

    def test_hops_are_tight(self):
        g = self._tie_graph(99)
        target = g.n - 1
        spt = build_spt_to_target(g, target)
        for v in range(g.n):
            if v == target or spt.dist[v] == INF:
                assert spt.next_hop[v] == -1 or v != target
                continue
            u = spt.next_hop[v]
            assert u >= 0
            assert spt.dist[v] == g.edge_weight(v, u) + spt.dist[u]

    def test_zero_weight_cycle_paths_terminate(self):
        # 0 <-> 1 at weight zero, both one zero hop from the target:
        # a naive per-node argmin over tight edges could point 0 and 1
        # at each other and loop forever in path_from.
        g = DiGraph.from_edges(
            3,
            [
                (0, 1, 0.0),
                (1, 0, 0.0),
                (0, 2, 0.0),
                (1, 2, 0.0),
            ],
        )
        for kernel in ("dict", "flat"):
            spt = build_spt_to_target(g, 2, kernel=kernel)
            for v in range(3):
                path = spt.path_from(v)
                assert path is not None and path[-1] == 2
                assert len(path) == len(set(path))


class TestPartialSPT:
    def make_query(self, seed=31):
        rng = random.Random(seed)
        g = random_graph(rng, min_nodes=10, max_nodes=16, bidirectional=True)
        src = rng.randrange(g.n)
        dests = rng.sample(range(g.n), 3)
        return g, build_query_graph(g, (src,), dests)

    def test_settled_distances_are_exact(self):
        g, qg = self.make_query()
        tree = build_partial_spt(qg.graph, qg.source, (qg.target,), zero)
        exact = single_source_distances(qg.reversed_graph(), qg.target)
        for v, d in tree.dist_to_targets.items():
            assert d == pytest.approx(exact[v])

    def test_source_path_is_shortest(self):
        g, qg = self.make_query(seed=32)
        tree = build_partial_spt(qg.graph, qg.source, (qg.target,), zero)
        from repro.pathing.dijkstra import shortest_path

        exact = shortest_path(qg.graph, qg.source, qg.target)
        if exact is None:
            assert tree.source_path is None
        else:
            assert tree.source_path is not None
            assert qg.graph.path_weight(tree.source_path) == pytest.approx(exact[1])
            assert tree.source_path[0] == qg.source
            assert tree.source_path[-1] == qg.target

    def test_partial_tree_stops_at_source(self):
        # On a long line with the destination at one end, the backward
        # A* stops once the source is settled: nodes far beyond the
        # source stay outside the tree.
        g = DiGraph.from_edges(
            20, [(i, i + 1, 1.0) for i in range(19)], bidirectional=True
        )
        qg = build_query_graph(g, (15,), (19,))
        tree = build_partial_spt(qg.graph, qg.source, (qg.target,), zero)
        assert 15 in tree
        assert 0 not in tree  # far side of the line was never explored
        assert len(tree) < 20

    def test_len_counts_settled(self):
        g, qg = self.make_query(seed=33)
        tree = build_partial_spt(qg.graph, qg.source, (qg.target,), zero)
        assert len(tree) == len(tree.dist_to_targets)

    def test_unreachable_source(self):
        g = DiGraph.from_edges(3, [(1, 2, 1.0)])  # 0 isolated
        qg = build_query_graph(g, (0,), (2,))
        tree = build_partial_spt(qg.graph, qg.source, (qg.target,), zero)
        assert tree.source_path is None
