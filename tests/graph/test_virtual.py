"""Unit tests for the G_Q virtual-node query transform."""

import random
import tracemalloc

import pytest

from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.virtual import OverlayRows, build_query_graph
from tests.conftest import random_graph


@pytest.fixture
def graph():
    return DiGraph.from_edges(
        4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 10.0)]
    )


class TestKPJTransform:
    def test_virtual_target_added(self, graph):
        qg = build_query_graph(graph, (0,), (2, 3))
        assert qg.target == 4
        assert qg.graph.n == 5
        assert qg.graph.m == graph.m + 2
        assert qg.graph.edge_weight(2, 4) == 0.0
        assert qg.graph.edge_weight(3, 4) == 0.0

    def test_single_source_is_not_virtual(self, graph):
        qg = build_query_graph(graph, (0,), (3,))
        assert qg.source == 0
        assert not qg.has_virtual_source

    def test_rows_shared_with_base(self, graph):
        qg = build_query_graph(graph, (0,), (3,))
        # Non-destination rows are the very same list objects.
        assert qg.graph.adjacency[0] is graph.adjacency[0]
        assert qg.graph.adjacency[1] is graph.adjacency[1]
        # The destination row is a patched copy, base row untouched.
        assert qg.graph.adjacency[3] == graph.adjacency[3] + [(4, 0.0)]
        assert (4, 0.0) not in graph.adjacency[3]

    def test_reverse_rows_correct(self, graph):
        qg = build_query_graph(graph, (0,), (2, 3))
        radj = qg.graph.reverse_adjacency()
        assert radj[4] == [(2, 0.0), (3, 0.0)]
        assert sorted(radj[3]) == [(0, 10.0), (2, 3.0)]

    def test_destinations_sorted_deduped(self, graph):
        qg = build_query_graph(graph, (0,), (3, 2, 3))
        assert qg.destinations == (2, 3)

    def test_strip_removes_virtual_target(self, graph):
        qg = build_query_graph(graph, (0,), (3,))
        assert qg.strip((0, 1, 2, 3, 4)) == (0, 1, 2, 3)
        assert qg.strip((0, 3)) == (0, 3)


class TestGKPJTransform:
    def test_virtual_source_added(self, graph):
        qg = build_query_graph(graph, (0, 1), (3,))
        assert qg.has_virtual_source
        assert qg.source == 5
        assert qg.graph.n == 6
        assert qg.graph.edge_weight(5, 0) == 0.0
        assert qg.graph.edge_weight(5, 1) == 0.0

    def test_strip_removes_both_virtual_ends(self, graph):
        qg = build_query_graph(graph, (0, 1), (3,))
        assert qg.strip((5, 1, 2, 3, 4)) == (1, 2, 3)

    def test_gkpj_reverse_rows(self, graph):
        qg = build_query_graph(graph, (0, 1), (3,))
        radj = qg.graph.reverse_adjacency()
        assert (5, 0.0) in radj[0]
        assert (5, 0.0) in radj[1]
        assert radj[5] == []


class TestValidation:
    def test_empty_sources_rejected(self, graph):
        with pytest.raises(QueryError):
            build_query_graph(graph, (), (3,))

    def test_empty_destinations_rejected(self, graph):
        with pytest.raises(QueryError):
            build_query_graph(graph, (0,), ())

    def test_out_of_range_rejected(self, graph):
        with pytest.raises(QueryError):
            build_query_graph(graph, (0,), (99,))
        with pytest.raises(QueryError):
            build_query_graph(graph, (-1,), (3,))

    def test_unfrozen_graph_rejected(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.0)
        with pytest.raises(QueryError):
            build_query_graph(g, (0,), (1,))

    def test_reversed_graph_view(self, graph):
        qg = build_query_graph(graph, (0,), (3,))
        rv = qg.reversed_graph()
        assert rv.adjacency[4] == [(3, 0.0)]
        assert rv.edge_weight(4, 3) == 0.0


def materialised_query_graph(base, sources, destinations):
    """``G_Q`` built independently of the overlay: the virtual target
    (and, for several sources, the virtual source) become real nodes of
    a fresh :class:`DiGraph`, as the fuzz oracle's Yen reference does."""
    srcs = set(sources)
    extra = 2 if len(srcs) > 1 else 1
    g = DiGraph(base.n + extra)
    for u, v, w in base.edges():
        g.add_edge(u, v, w)
    for v in set(destinations):
        g.add_edge(v, base.n, 0.0)
    if len(srcs) > 1:
        for s in srcs:
            g.add_edge(base.n + 1, s, 0.0)
    return g.freeze()


class TestOverlayMatchesMaterialised:
    """Every forward and reverse row of the overlay equals the row of a
    ``G_Q`` materialised from scratch, for every node id."""

    def assert_same_graph(self, base, sources, destinations):
        qg = build_query_graph(base, sources, destinations)
        ref = materialised_query_graph(base, sources, destinations)
        gq = qg.graph
        assert isinstance(gq.adjacency, OverlayRows)
        assert (gq.n, gq.m) == (ref.n, ref.m)
        assert len(gq.adjacency) == len(gq.reverse_adjacency()) == ref.n
        for u in range(ref.n):
            assert gq.adjacency[u] == ref.adjacency[u], u
            assert gq.reverse_adjacency()[u] == ref.reverse_adjacency()[u], u
        assert list(gq.adjacency) == ref.adjacency
        assert list(gq.reverse_adjacency()) == ref.reverse_adjacency()
        assert sorted(gq.edges()) == sorted(ref.edges())
        for u in (-1, -ref.n):
            assert gq.adjacency[u] == ref.adjacency[u]
        for u in (ref.n, -ref.n - 1):
            with pytest.raises(IndexError):
                gq.adjacency[u]

    def test_kpj(self, graph):
        self.assert_same_graph(graph, (0,), (2, 3))

    def test_gkpj_virtual_source(self, graph):
        self.assert_same_graph(graph, (0, 1), (3,))

    def test_destinations_contain_the_source(self, graph):
        self.assert_same_graph(graph, (2,), (2, 3))

    def test_single_destination(self, graph):
        self.assert_same_graph(graph, (0,), (3,))

    def test_random_graphs(self):
        rng = random.Random(16)
        for _ in range(20):
            g = random_graph(rng)
            sources = rng.sample(range(g.n), rng.randint(1, 3))
            destinations = rng.sample(range(g.n), rng.randint(1, 4))
            self.assert_same_graph(g, sources, destinations)

    def test_base_rows_untouched(self, graph):
        before = [list(row) for row in graph.adjacency]
        before_rev = [list(row) for row in graph.reverse_adjacency()]
        build_query_graph(graph, (0, 1), (2, 3))
        assert graph.adjacency == before
        assert graph.reverse_adjacency() == before_rev


def test_overlay_allocation_does_not_grow_with_n():
    """Building ``G_Q`` stores only the destination rows and the
    virtual rows, never an n-entry row list (2 x 8 x n bytes of row
    references on COL would be about 246 KB)."""
    from repro.datasets.registry import road_network

    base = road_network("COL").graph
    assert base.n == 15_400
    destinations = (11, 2_000, 7_777, 9_001, 15_399)
    build_query_graph(base, (5,), destinations)  # cache base reverse rows
    tracemalloc.start()
    try:
        build_query_graph(base, (5,), destinations)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16_384
