"""Unit tests for the KPJSolver facade and algorithm registry."""

import re

import numpy as np
import pytest

from repro.core.kpj import ALGORITHMS, DEFAULT_ALGORITHM, KPJSolver
from repro.exceptions import QueryError
from repro.graph.categories import CategoryIndex
from repro.graph.digraph import DiGraph
from repro.landmarks.index import LandmarkIndex


@pytest.fixture(scope="module")
def solver(paper_graph, paper_categories):
    return KPJSolver(paper_graph, paper_categories, landmarks=4)


class TestTopK:
    def test_category_query(self, solver, paper_built):
        result = solver.top_k(paper_built.node_id("v1"), category="H", k=3)
        assert result.lengths == (5.0, 6.0, 7.0)
        assert result.algorithm == DEFAULT_ALGORITHM
        assert result.k_found == 3

    def test_explicit_destinations(self, solver, paper_built):
        v = paper_built.node_id
        result = solver.top_k(v("v1"), destinations=[v("v7")], k=1)
        assert result.lengths == (5.0,)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_algorithm_agrees(self, solver, paper_built, algorithm):
        result = solver.top_k(
            paper_built.node_id("v1"), category="H", k=4, algorithm=algorithm
        )
        assert result.lengths == (5.0, 6.0, 7.0, 7.0)
        assert result.algorithm == algorithm

    def test_paths_live_in_base_graph(self, solver, paper_built, paper_graph):
        result = solver.top_k(paper_built.node_id("v1"), category="H", k=3)
        for path in result.paths:
            assert paper_graph.is_simple_path(path.nodes)
            assert max(path.nodes) < paper_graph.n  # no virtual ids leak

    def test_stats_populated(self, solver, paper_built):
        result = solver.top_k(paper_built.node_id("v1"), category="H", k=3)
        assert result.stats.nodes_settled > 0


class TestKSP:
    def test_single_destination(self, solver, paper_built):
        v = paper_built.node_id
        result = solver.ksp(v("v1"), v("v7"), k=2)
        assert result.lengths[0] == 5.0
        assert result.paths[0].nodes == (v("v1"), v("v8"), v("v7"))

    def test_ksp_equals_top_k_with_singleton(self, solver, paper_built):
        v = paper_built.node_id
        a = solver.ksp(v("v1"), v("v6"), k=3)
        b = solver.top_k(v("v1"), destinations=[v("v6")], k=3)
        assert a.lengths == b.lengths


class TestValidation:
    def test_unknown_algorithm(self, solver, paper_built):
        with pytest.raises(QueryError, match="unknown algorithm"):
            solver.top_k(paper_built.node_id("v1"), category="H", algorithm="magic")

    def test_nonpositive_k(self, solver, paper_built):
        with pytest.raises(QueryError):
            solver.top_k(paper_built.node_id("v1"), category="H", k=0)

    def test_unknown_category(self, solver, paper_built):
        with pytest.raises(QueryError):
            solver.top_k(paper_built.node_id("v1"), category="Restaurant")

    def test_category_and_destinations_conflict(self, solver, paper_built):
        with pytest.raises(QueryError):
            solver.top_k(
                paper_built.node_id("v1"), category="H", destinations=[1]
            )

    def test_neither_category_nor_destinations(self, solver, paper_built):
        with pytest.raises(QueryError):
            solver.top_k(paper_built.node_id("v1"))

    def test_join_without_sources(self, solver):
        with pytest.raises(QueryError, match="at least one source"):
            solver.join(sources=[], category="H")

    def test_category_without_index(self, paper_graph):
        bare = KPJSolver(paper_graph, landmarks=None)
        with pytest.raises(QueryError, match="CategoryIndex"):
            bare.top_k(0, category="H")

    @pytest.mark.parametrize("node", [5.0, 5.5, True, "5"])
    def test_non_integer_destination_rejected(self, solver, node):
        message = re.escape(f"query node {node!r} is not an integer")
        with pytest.raises(QueryError, match=message):
            solver.top_k(1, destinations=[node], k=1)
        with pytest.raises(QueryError, match=message):
            solver.prepare(destinations=[3, node])

    @pytest.mark.parametrize("node", [1.0, True, "1"])
    def test_non_integer_source_rejected(self, solver, node):
        message = re.escape(f"query node {node!r} is not an integer")
        with pytest.raises(QueryError, match=message):
            solver.top_k(node, category="H", k=1)
        with pytest.raises(QueryError, match=message):
            solver.join(sources=[0, node], category="H", k=1)
        with pytest.raises(QueryError, match=message):
            solver.prepare(category="H").top_k(node, k=1)

    def test_numpy_integer_ids_accepted(self, solver, paper_built, paper_categories):
        v1 = paper_built.node_id("v1")
        hotels = paper_categories.nodes_of("H")
        expected = solver.top_k(v1, destinations=hotels, k=3)
        got = solver.top_k(
            np.int64(v1), destinations=[np.int64(v) for v in hotels], k=3
        )
        assert got.paths == expected.paths
        sources = [v1, paper_built.node_id("v2")]
        joined = solver.join(
            sources=[np.int64(v) for v in sources], destinations=np.asarray(hotels), k=3
        )
        assert joined.paths == solver.join(sources=sources, destinations=hotels, k=3).paths


@pytest.fixture(scope="module")
def sj_solver():
    from repro.datasets.registry import road_network

    dataset = road_network("SJ")
    return KPJSolver(dataset.graph, dataset.categories, landmarks=4)


class TestQueryParameters:
    """``k`` and ``alpha`` are checked at the solver's front door: a
    ``QueryError`` naming the field, for every algorithm and entry
    point — not a truncated answer or a bare ``TypeError``/``ValueError``
    from deep inside a search."""

    @pytest.mark.parametrize(
        "k", [2.5, True, "3", None, 0, -1, np.float64(3.0)], ids=repr
    )
    def test_bad_k_rejected_naming_the_field(self, sj_solver, k):
        message = re.escape(f"k must be a positive integer, got {k!r}")
        with pytest.raises(QueryError, match=message):
            sj_solver.top_k(5, category="T2", k=k)
        with pytest.raises(QueryError, match=message):
            sj_solver.join(sources=[5, 6], category="T2", k=k)
        with pytest.raises(QueryError, match=message):
            sj_solver.prepare(category="T2").top_k(5, k=k)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize(
        "alpha", [1.0, float("nan"), 0.5, True, "1.1", None], ids=repr
    )
    def test_bad_alpha_rejected_for_every_algorithm(self, sj_solver, algorithm, alpha):
        message = re.escape(f"alpha must be a real number > 1, got {alpha!r}")
        with pytest.raises(QueryError, match=message):
            sj_solver.top_k(5, category="T2", k=2, algorithm=algorithm, alpha=alpha)

    def test_numpy_k_and_alpha_accepted(self, sj_solver):
        expected = sj_solver.top_k(5, category="T2", k=3, alpha=1.5)
        got = sj_solver.top_k(
            5, category="T2", k=np.int64(3), alpha=np.float64(1.5)
        )
        assert got.paths == expected.paths
        assert len(got.paths) == 3


class TestConstruction:
    def test_landmarks_int_builds_index(self, paper_graph, paper_categories):
        solver = KPJSolver(paper_graph, paper_categories, landmarks=3)
        assert solver.landmark_index is not None
        assert solver.landmark_index.size == 3

    def test_landmarks_none(self, paper_graph, paper_categories, paper_built):
        solver = KPJSolver(paper_graph, paper_categories, landmarks=None)
        assert solver.landmark_index is None
        result = solver.top_k(paper_built.node_id("v1"), category="H", k=3)
        assert result.lengths == (5.0, 6.0, 7.0)

    def test_landmarks_prebuilt_index(self, paper_graph, paper_categories):
        index = LandmarkIndex.build(paper_graph, 2)
        solver = KPJSolver(paper_graph, paper_categories, landmarks=index)
        assert solver.landmark_index is index

    def test_unfrozen_graph_is_frozen(self, paper_categories):
        g = DiGraph(3)
        g.add_bidirectional_edge(0, 1, 1.0)
        g.add_bidirectional_edge(1, 2, 1.0)
        solver = KPJSolver(g, CategoryIndex({"X": [2]}), landmarks=None)
        assert g.frozen
        assert solver.top_k(0, category="X", k=1).lengths == (2.0,)


class TestRegistry:
    def test_default_in_registry(self):
        assert DEFAULT_ALGORITHM in ALGORITHMS

    def test_expected_names(self):
        assert set(ALGORITHMS) == {
            "da",
            "da-spt",
            "best-first",
            "iter-bound",
            "iter-bound-sptp",
            "iter-bound-spti",
            "iter-bound-spti-nl",
        }
