"""Unit tests for the CSR snapshot."""

import numpy as np

from repro.graph.csr import to_csr
from repro.graph.digraph import DiGraph


def make_graph():
    return DiGraph.from_edges(
        4, [(0, 1, 1.0), (0, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)]
    )


class TestCSR:
    def test_shapes(self):
        csr = to_csr(make_graph())
        assert csr.n == 4
        assert csr.m == 4
        assert len(csr.indptr) == 5
        assert len(csr.indices) == len(csr.weights) == 4

    def test_neighbors_and_weights(self):
        csr = to_csr(make_graph())
        assert list(csr.neighbors(0)) == [1, 2]
        assert list(csr.edge_weights(0)) == [1.0, 2.0]
        assert list(csr.neighbors(1)) == []

    def test_out_degrees(self):
        csr = to_csr(make_graph())
        assert list(csr.out_degrees()) == [2, 0, 1, 1]

    def test_degree_histogram(self):
        csr = to_csr(make_graph())
        assert csr.degree_histogram() == {0: 1, 1: 2, 2: 1}

    def test_empty_graph(self):
        csr = to_csr(DiGraph(3).freeze())
        assert csr.n == 3
        assert csr.m == 0
        assert list(csr.out_degrees()) == [0, 0, 0]

    def test_round_trip_matches_adjacency(self):
        g = make_graph()
        csr = to_csr(g)
        for u in range(g.n):
            expected = g.out_edges(u)
            got = list(zip(csr.neighbors(u), csr.edge_weights(u)))
            assert [(int(v), float(w)) for v, w in got] == list(expected)

    def test_dtypes(self):
        csr = to_csr(make_graph())
        assert csr.indptr.dtype == np.int64
        assert csr.indices.dtype == np.int64
        assert csr.weights.dtype == np.float64


class TestReverse:
    def test_reverse_edges_are_transposed(self):
        g = make_graph()
        csr = to_csr(g)
        rev = csr.reverse()
        fwd = {
            (u, int(v), float(w))
            for u in range(g.n)
            for v, w in zip(csr.neighbors(u), csr.edge_weights(u))
        }
        bwd = {
            (int(v), u, float(w))
            for u in range(g.n)
            for v, w in zip(rev.neighbors(u), rev.edge_weights(u))
        }
        assert fwd == bwd

    def test_reverse_is_cached_and_involutive(self):
        csr = to_csr(make_graph())
        rev = csr.reverse()
        assert csr.reverse() is rev
        assert rev.reverse() is csr

    def test_reverse_empty_graph(self):
        from repro.graph.digraph import DiGraph

        csr = to_csr(DiGraph(3).freeze())
        rev = csr.reverse()
        assert rev.n == 3 and rev.m == 0


class TestSharedCSR:
    def test_cached_on_frozen_digraph(self):
        from repro.graph.csr import shared_csr

        g = make_graph()
        assert shared_csr(g) is shared_csr(g)

    def test_reversed_view_shares_base_export(self):
        from repro.graph.csr import shared_csr
        from repro.graph.digraph import ReversedView

        g = make_graph()
        rg = ReversedView(g)
        assert shared_csr(rg) is shared_csr(g).reverse()

    def test_matches_to_csr(self):
        from repro.graph.csr import shared_csr

        g = make_graph()
        a, b = shared_csr(g), to_csr(g)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)
