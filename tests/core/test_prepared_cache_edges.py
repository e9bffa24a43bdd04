"""Prepared-cache edge cases.

Three hazards the cache must survive: the category index being
mutated (or swapped out) between queries, LRU eviction happening in
the middle of a batch, and the cache itself changing answers — it may
only ever change *timings*.
"""

import random

import pytest

from repro.core.kpj import KPJSolver
from repro.graph.categories import CategoryIndex
from repro.server.service import BatchQuery

from tests.conftest import KERNELS, random_graph


def paths_of(result):
    return [(p.length, p.nodes) for p in result.paths]


@pytest.mark.parametrize("kernel", KERNELS)
class TestCategoryMutation:
    def test_index_snapshots_member_iterables(
        self, paper_graph, paper_built, kernel
    ):
        # CategoryIndex copies its member lists up front: mutating the
        # mapping afterwards must not leak into cached artefacts.
        v = paper_built.node_id
        members = {"H": [v("v4"), v("v6"), v("v7")]}
        index = CategoryIndex(members)
        solver = KPJSolver(paper_graph, index, landmarks=4)
        before = solver.top_k(v("v1"), category="H", k=3)
        members["H"].clear()
        after = solver.top_k(v("v1"), category="H", k=3)
        assert paths_of(after) == paths_of(before)
        assert solver.cache_info()["hits"] == 1  # same destination set

    def test_swapped_index_misses_instead_of_serving_stale(
        self, paper_graph, paper_built, kernel
    ):
        # The cache is keyed by the *resolved destination set*, not the
        # category name, so rebinding "H" to different nodes between
        # queries gets a fresh entry — never a stale answer.
        v = paper_built.node_id
        solver = KPJSolver(
            paper_graph,
            CategoryIndex({"H": [v("v4"), v("v6"), v("v7")]}),
            landmarks=4,
        )
        solver.top_k(v("v1"), category="H", k=3)
        solver.categories = CategoryIndex({"H": [v("v4")]})
        narrowed = solver.top_k(v("v1"), category="H", k=2)
        explicit = solver.top_k(v("v1"), destinations=[v("v4")], k=2)
        assert paths_of(narrowed) == paths_of(explicit)
        assert all(p.nodes[-1] == v("v4") for p in narrowed.paths)
        info = solver.cache_info()
        assert info["entries"] == 2
        assert info["misses"] == 2


@pytest.mark.parametrize("kernel", KERNELS)
class TestEvictionMidBatch:
    def _queries(self, v):
        # Alternate destination sets so a size-1 cache thrashes.
        return [
            BatchQuery(source=v("v1"), category="H", k=3),
            BatchQuery(source=v("v1"), destinations=(v("v13"),), k=2),
            BatchQuery(source=v("v9"), category="H", k=3),
            BatchQuery(source=v("v9"), destinations=(v("v13"),), k=2),
        ]

    def test_thrashing_cache_keeps_answers_identical(
        self, paper_graph, paper_categories, paper_built, kernel
    ):
        v = paper_built.node_id
        tiny = KPJSolver(
            paper_graph, paper_categories, landmarks=4,
            prepared_cache_size=1,
        )
        roomy = KPJSolver(
            paper_graph, paper_categories, landmarks=4,
        )
        thrashed = tiny.solve_batch(self._queries(v))
        cached = roomy.solve_batch(self._queries(v))
        assert [paths_of(r) for r in thrashed] == [paths_of(r) for r in cached]
        # The size bound held throughout, and every alternation evicted:
        # four queries, two destination sets, zero reuse.
        info = tiny.cache_info()
        assert info["entries"] == 1
        assert info["misses"] == 4
        assert info["hits"] == 0
        # The roomy cache proves reuse was available.
        assert roomy.cache_info()["hits"] == 2

    def test_eviction_under_workers_matches_sequential(
        self, paper_graph, paper_categories, paper_built, kernel
    ):
        v = paper_built.node_id
        solver = KPJSolver(
            paper_graph, paper_categories, landmarks=4,
            prepared_cache_size=1,
        )
        sequential = solver.solve_batch(self._queries(v))
        parallel = solver.solve_batch(self._queries(v), workers=2)
        assert [paths_of(r) for r in parallel] == [paths_of(r) for r in sequential]


@pytest.mark.parametrize("kernel", KERNELS)
class TestCacheNeutrality:
    def test_disabled_vs_enabled_path_equality(self, kernel):
        # Property: over random graphs, sources, and k, the cache is
        # invisible in the answers — paths, not just lengths.
        rng = random.Random(20260806)
        for _ in range(8):
            graph = random_graph(rng, min_nodes=6, max_nodes=12)
            destinations = sorted(
                rng.sample(range(graph.n), rng.randint(1, 3))
            )
            uncached = KPJSolver(
                graph, landmarks=2, prepared_cache_size=0
            )
            cached = KPJSolver(
                graph, landmarks=2, prepared_cache_size=8
            )
            for source in range(graph.n):
                k = rng.randint(1, 4)
                a = uncached.top_k(source, destinations=destinations, k=k)
                b = cached.top_k(source, destinations=destinations, k=k)
                # Ask twice so the cached solver actually serves a hit.
                c = cached.top_k(source, destinations=destinations, k=k)
                assert paths_of(a) == paths_of(b) == paths_of(c)
            assert uncached.cache_info()["entries"] == 0
            assert cached.cache_info()["hits"] > 0


class TestBadSourceBuildsNothing:
    """A source outside the graph fails before the prepared cache is
    consulted: no entry is built, and no lookup is counted."""

    def test_out_of_range_source_leaves_the_cache_cold(self):
        from repro.datasets.registry import road_network
        from repro.exceptions import QueryError

        sj = road_network("SJ")
        solver = KPJSolver(sj.graph, sj.categories, landmarks=4)
        before = solver.stats.as_dict()
        with pytest.raises(QueryError, match="out of range"):
            solver.top_k(source=sj.n + 5, category="T1")
        with pytest.raises(QueryError, match="out of range"):
            solver.join(sources=[sj.n + 5], category="T2")
        info = solver.cache_info()
        assert (info["entries"], info["misses"]) == (0, 0)
        assert solver.stats.as_dict() == before
