"""Unit tests for IterBound-SPT_I (Section 5.3, Algs. 7–8)."""

import random

import pytest

from repro import native
from repro.baselines.brute_force import brute_force_topk, enumerate_simple_paths
from repro.core.flat_engine import CompiledIncrementalSPT, FlatIncrementalSPT
from repro.core.kpj import KPJSolver
from repro.core.spt_incremental import iter_bound_spti
from repro.core.stats import SearchStats
from repro.graph.categories import CategoryIndex
from repro.graph.digraph import DiGraph
from repro.graph.virtual import build_query_graph
from repro.landmarks.index import ZERO_BOUNDS, LandmarkIndex
from repro.pathing.dijkstra import single_source_distances
from tests.conftest import random_graph

INF = float("inf")


def run(graph, source, destinations, k, index=None, stats=None, alpha=1.1):
    qg = build_query_graph(graph, (source,), destinations)
    if index is None:
        tb, sb = ZERO_BOUNDS, ZERO_BOUNDS
    else:
        tb = index.to_target_bounds(qg.destinations)
        sb = index.from_source_bounds(qg.sources)
    paths = iter_bound_spti(qg, k, tb, sb, stats=stats, alpha=alpha)
    return [(qg.strip(p.nodes), p.length) for p in paths]


class TestIncrementalSPT:
    #: The Python reference; the subclass below runs every case on the
    #: compiled tree.
    tree_class = FlatIncrementalSPT

    def make(self, seed=121):
        rng = random.Random(seed)
        g = random_graph(rng, min_nodes=12, max_nodes=18, bidirectional=True)
        src = rng.randrange(g.n)
        dests = rng.sample(range(g.n), 3)
        qg = build_query_graph(g, (src,), dests)
        return g, qg

    def test_build_initial_finds_shortest_path(self):
        g, qg = self.make()
        tree = self.tree_class(qg, ZERO_BOUNDS)
        initial = tree.build_initial(qg.target)
        dist = single_source_distances(qg.graph, qg.source)
        assert initial is not None
        path, length = initial
        assert length == pytest.approx(dist[qg.target])
        assert path[0] == qg.source and path[-1] == qg.target

    def test_settled_distances_are_exact(self):
        g, qg = self.make(seed=122)
        tree = self.tree_class(qg, ZERO_BOUNDS)
        tree.build_initial(qg.target)
        tree.grow(10.0)
        dist = single_source_distances(qg.graph, qg.source)
        settled = [v for v in range(qg.graph.n) if v in tree]
        assert len(settled) == len(tree) > 0
        for v in settled:
            assert tree.distance(v) == pytest.approx(dist[v])

    def test_prop_5_2_grow_covers_short_paths(self):
        """After grow(tau), every node of every path of length <= tau
        from the source to the target is settled (Prop. 5.2)."""
        g, qg = self.make(seed=123)
        tree = self.tree_class(qg, ZERO_BOUNDS)
        initial = tree.build_initial(qg.target)
        assert initial is not None
        tau = initial[1] * 1.5
        tree.grow(tau)
        for path in enumerate_simple_paths(qg.graph, qg.source, (qg.target,)):
            if path.length <= tau:
                assert all(v in tree for v in path.nodes)

    def test_grow_is_monotone(self):
        g, qg = self.make(seed=124)
        tree = self.tree_class(qg, ZERO_BOUNDS)
        tree.build_initial(qg.target)
        before = len(tree)
        tree.grow(5.0)
        mid = len(tree)
        tree.grow(20.0)
        assert before <= mid <= len(tree)

    def test_settled_destinations_tracked(self):
        g, qg = self.make(seed=125)
        tree = self.tree_class(qg, ZERO_BOUNDS)
        tree.build_initial(qg.target)
        tree.grow(1e9)
        dist = single_source_distances(qg.graph, qg.source)
        expected = {v for v in qg.destinations if dist[v] < INF}
        nodes, dists = tree.settled_destinations()
        assert set(nodes) == expected
        assert len(nodes) == len(dists) == len(expected)

    def test_distance_lookup(self):
        g, qg = self.make(seed=126)
        tree = self.tree_class(qg, ZERO_BOUNDS)
        tree.build_initial(qg.target)
        assert tree.distance(qg.source) == 0.0
        assert tree.distance(-1) is None

    def test_unreachable_target(self):
        g = DiGraph.from_edges(3, [(0, 1, 1.0)])
        qg = build_query_graph(g, (0,), (2,))
        tree = self.tree_class(qg, ZERO_BOUNDS)
        assert tree.build_initial(qg.target) is None


@pytest.mark.skipif(not native.HAVE_NATIVE, reason="compiled tier not built")
class TestCompiledIncrementalSPT(TestIncrementalSPT):
    tree_class = CompiledIncrementalSPT


class TestIterBoundSPTI:
    def test_paper_example(self, paper_built, paper_graph):
        v = paper_built.node_id
        hotels = [v("v4"), v("v6"), v("v7")]
        results = run(paper_graph, v("v1"), hotels, 3)
        assert [length for _, length in results] == [5.0, 6.0, 7.0]
        assert results[0][0] == (v("v1"), v("v8"), v("v7"))

    def test_matches_brute_force_no_landmarks(self):
        rng = random.Random(131)
        for _ in range(25):
            g = random_graph(rng)
            src = rng.randrange(g.n)
            dests = rng.sample(range(g.n), rng.randint(1, 3))
            k = rng.randint(1, 6)
            expected = [p.length for p in brute_force_topk(g, src, dests, k)]
            got = [length for _, length in run(g, src, dests, k)]
            assert got == pytest.approx(expected)

    def test_matches_brute_force_with_landmarks(self):
        rng = random.Random(132)
        for _ in range(20):
            g = random_graph(rng, bidirectional=True)
            index = LandmarkIndex.build(g, 3, seed=5)
            src = rng.randrange(g.n)
            dests = rng.sample(range(g.n), rng.randint(1, 3))
            k = rng.randint(1, 6)
            expected = [p.length for p in brute_force_topk(g, src, dests, k)]
            got = [length for _, length in run(g, src, dests, k, index=index)]
            assert got == pytest.approx(expected)

    def test_paths_are_forward_oriented(self, paper_built, paper_graph):
        """The reverse-orientation search must return source->dest paths."""
        v = paper_built.node_id
        results = run(paper_graph, v("v1"), [v("v7")], 2)
        for path, _ in results:
            assert path[0] == v("v1")
            assert path[-1] == v("v7")
            assert paper_graph.is_simple_path(path)

    def test_no_path(self):
        g = DiGraph.from_edges(3, [(0, 1, 1.0)])
        assert run(g, 0, (2,), 3) == []

    def test_source_is_destination(self, line_graph):
        results = run(line_graph, 2, (2, 4), 2)
        assert results[0] == ((2,), 0.0)

    def test_single_initial_sp_computation(self, paper_built, paper_graph):
        v = paper_built.node_id
        stats = SearchStats()
        run(paper_graph, v("v1"), [v("v4"), v("v6"), v("v7")], 3, stats=stats)
        assert stats.shortest_path_computations == 1

    def test_spti_size_recorded_and_partial(self):
        # Local query on a long ladder (2 x 30): alternative paths
        # exist near the source, so the tree must stay local instead of
        # spanning the graph.
        edges = []
        for i in range(29):
            edges.append((i, i + 1, 1.0))  # bottom rail
            edges.append((30 + i, 31 + i, 1.0))  # top rail
        for i in range(30):
            edges.append((i, 30 + i, 1.0))  # rungs
        g = DiGraph.from_edges(60, edges, bidirectional=True)
        stats = SearchStats()
        results = run(g, 5, (8,), 3, stats=stats)
        assert [length for _, length in results] == [3.0, 5.0, 5.0]
        assert 0 < stats.spt_nodes < 45

    def test_exhausts_graph_when_k_exceeds_path_count(self):
        # Only one simple path exists; asking for two forces the
        # driver to prove the rest of the space empty (tree covers all).
        g = DiGraph.from_edges(
            60, [(i, i + 1, 1.0) for i in range(59)], bidirectional=True
        )
        stats = SearchStats()
        results = run(g, 5, (8,), 2, stats=stats)
        assert [length for _, length in results] == [3.0]

    def test_dead_end_terminates(self):
        g = DiGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        results = run(g, 0, (3,), 5)
        assert [length for _, length in results] == [3.0]

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 4.0])
    def test_alpha_invariance(self, paper_built, paper_graph, alpha):
        v = paper_built.node_id
        hotels = [v("v4"), v("v6"), v("v7")]
        results = run(paper_graph, v("v1"), hotels, 4, alpha=alpha)
        assert [length for _, length in results] == [5.0, 6.0, 7.0, 7.0]


class TestVirtualEdgeOrder:
    """Alg. 7 relaxes a destination's zero-weight edge to ``t`` after
    its base row — where ``G_Q``'s overlay row appends it."""

    @pytest.mark.parametrize("landmarks", [None, 2])
    def test_virtual_edge_ties_with_zero_weight_edge_between_destinations(
        self, landmarks
    ):
        # Settling destination 1 (distance 1.0) reaches destination 2
        # over the zero-weight base edge 1 -> 2 and the virtual target
        # over 1 -> t at the same distance; 4 -> 2 is a second
        # zero-weight edge into a destination.
        edges = [
            (0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.0), (1, 3, 2.0), (2, 3, 1.0),
            (3, 4, 1.0), (4, 1, 0.5), (4, 2, 0.0),
        ]
        g = DiGraph.from_edges(5, edges)
        categories = CategoryIndex({"T": [1, 2]})
        expected = [p.length for p in brute_force_topk(g, 0, (1, 2), 6)]
        solver = KPJSolver(g, categories, landmarks=landmarks)
        result = solver.top_k(0, category="T", k=6, algorithm="iter-bound-spti")
        assert list(result.lengths) == pytest.approx(expected)
        paths = [(p.length, p.nodes) for p in result.paths]
        assert paths == [
            (1.0, (0, 1)), (1.0, (0, 1, 2)), (2.0, (0, 2)),
            (4.0, (0, 1, 3, 4, 2)), (4.5, (0, 2, 3, 4, 1)),
        ]
        # The work the dict and flat engines both did at the last
        # commit that had two engines.
        work = result.stats
        assert (
            work.nodes_settled, work.edges_relaxed, work.heap_pushes,
            work.heap_pops, work.lb_tests,
        ) == (63, 31, 65, 65, 33)
