"""Unit tests for the prepared-category batch API."""

import pytest

from repro.core.kpj import ALGORITHMS, KPJSolver
from repro.exceptions import QueryError


@pytest.fixture(scope="module")
def solver(paper_graph, paper_categories):
    return KPJSolver(paper_graph, paper_categories, landmarks=4)


class TestPreparedCategory:
    def test_matches_direct_queries(self, solver, paper_built):
        v = paper_built.node_id
        prepared = solver.prepare(category="H")
        for source_name in ("v1", "v9", "v12"):
            source = v(source_name)
            direct = solver.top_k(source, category="H", k=4)
            batched = prepared.top_k(source, k=4)
            assert batched.lengths == direct.lengths
            assert [p.nodes for p in batched.paths] == [
                p.nodes for p in direct.paths
            ]

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_all_algorithms_supported(self, solver, paper_built, algorithm):
        v = paper_built.node_id
        prepared = solver.prepare(category="H")
        result = prepared.top_k(v("v1"), k=3, algorithm=algorithm)
        assert result.lengths == (5.0, 6.0, 7.0)

    def test_join_through_prepared(self, solver, paper_built):
        v = paper_built.node_id
        prepared = solver.prepare(category="H")
        direct = solver.join(
            sources=[v("v9"), v("v12")], category="H", k=3
        )
        batched = prepared.join([v("v9"), v("v12")], k=3)
        assert batched.lengths == direct.lengths

    def test_explicit_destinations(self, solver, paper_built):
        v = paper_built.node_id
        prepared = solver.prepare(destinations=[v("v7")])
        assert prepared.destinations == (v("v7"),)
        result = prepared.top_k(v("v1"), k=1)
        assert result.lengths == (5.0,)

    def test_prepare_validation(self, solver):
        with pytest.raises(QueryError):
            solver.prepare()  # neither category nor destinations
        with pytest.raises(QueryError):
            solver.prepare(category="Nope")

    def test_prepared_without_landmarks(self, paper_graph, paper_categories, paper_built):
        bare = KPJSolver(paper_graph, paper_categories, landmarks=None)
        prepared = bare.prepare(category="H")
        v = paper_built.node_id
        assert prepared.top_k(v("v1"), k=3).lengths == (5.0, 6.0, 7.0)


class TestPreparedCache:
    """LRU semantics and hit/miss accounting of the solver cache."""

    def _solver(self, paper_graph, paper_categories, **kw):
        return KPJSolver(paper_graph, paper_categories, landmarks=None, **kw)

    def test_repeat_query_hits(self, paper_graph, paper_categories, paper_built):
        s = self._solver(paper_graph, paper_categories)
        v = paper_built.node_id
        first = s.top_k(v("v1"), category="H", k=3)
        second = s.top_k(v("v9"), category="H", k=3)
        assert first.stats.prepared_cache_misses == 1
        assert first.stats.prepared_cache_hits == 0
        assert second.stats.prepared_cache_hits == 1
        assert second.stats.prepared_cache_misses == 0
        info = s.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["entries"] == 1

    def test_distinct_destination_sets_distinct_entries(
        self, paper_graph, paper_categories, paper_built
    ):
        s = self._solver(paper_graph, paper_categories)
        v = paper_built.node_id
        s.top_k(v("v1"), category="H", k=2)
        s.top_k(v("v1"), destinations=[v("v4")], k=2)
        assert s.cache_info()["entries"] == 2
        assert s.cache_info()["misses"] == 2

    def test_duplicate_destinations_share_an_entry(
        self, paper_graph, paper_categories, paper_built
    ):
        s = self._solver(paper_graph, paper_categories)
        v = paper_built.node_id
        dests = [v("v4"), v("v6")]
        s.top_k(v("v1"), destinations=dests, k=2)
        # Re-ordered and duplicated destination lists canonicalise to
        # the same cache key.
        s.top_k(v("v1"), destinations=list(reversed(dests)) + [dests[0]], k=2)
        assert s.cache_info()["hits"] == 1

    def test_lru_eviction_respects_bound(
        self, paper_graph, paper_categories, paper_built
    ):
        s = self._solver(paper_graph, paper_categories, prepared_cache_size=2)
        v = paper_built.node_id
        for name in ("v4", "v6", "v7"):  # three distinct destination sets
            s.top_k(v("v1"), destinations=[v(name)], k=1)
        assert s.cache_info()["entries"] == 2
        # The oldest entry (v4) was evicted: querying it again misses.
        s.top_k(v("v1"), destinations=[v("v4")], k=1)
        assert s.cache_info()["misses"] == 4

    def test_zero_size_disables_caching(
        self, paper_graph, paper_categories, paper_built
    ):
        s = self._solver(paper_graph, paper_categories, prepared_cache_size=0)
        v = paper_built.node_id
        s.top_k(v("v1"), category="H", k=2)
        s.top_k(v("v1"), category="H", k=2)
        info = s.cache_info()
        assert info["entries"] == 0
        assert info["hits"] == 0 and info["misses"] == 2

    @pytest.mark.parametrize("sources", [("v1",), ("v9", "v12")], ids=["kpj", "gkpj"])
    def test_a_miss_checks_its_destination_set_once(
        self, paper_graph, paper_categories, paper_built, sources, monkeypatch
    ):
        # The solver checks and sorts the set on entry, then builds G_Q
        # from that canonical tuple without checking it again.
        from repro.core import kpj
        from repro.graph import virtual

        real = virtual.check_query_nodes
        checked = []

        def check(nodes, n):
            checked.append(set(nodes))
            return real(nodes, n)

        monkeypatch.setattr(kpj, "check_query_nodes", check)
        monkeypatch.setattr(virtual, "check_query_nodes", check)
        v = paper_built.node_id
        dests = {v("v7"), v("v4")}
        s = self._solver(paper_graph, paper_categories)
        result = s.join(sources=[v(name) for name in sources], destinations=dests, k=2)
        assert result.stats.prepared_cache_misses == 1
        assert sum(dests <= nodes for nodes in checked) == 1

    def test_invalid_config_rejected(self, paper_graph, paper_categories):
        with pytest.raises(QueryError):
            KPJSolver(paper_graph, paper_categories, prepared_cache_size=-1)

    def test_cached_answers_identical_to_cold(
        self, paper_graph, paper_categories, paper_built
    ):
        v = paper_built.node_id
        warm = self._solver(paper_graph, paper_categories)
        warm.top_k(v("v1"), category="H", k=3)  # prime
        cold = self._solver(paper_graph, paper_categories)
        a = warm.top_k(v("v1"), category="H", k=3)
        b = cold.top_k(v("v1"), category="H", k=3)
        assert a.lengths == b.lengths
        assert [p.nodes for p in a.paths] == [p.nodes for p in b.paths]


def _miss_peak_bytes() -> tuple[int, int]:
    """Traced peak of a COL prepared-cache miss (16 landmarks, after a
    warm-up query that fills the pools), and ``n``."""
    import tracemalloc

    from repro.datasets.registry import road_network

    dataset = road_network("COL")
    solver = KPJSolver(dataset.graph, dataset.categories, landmarks=16)
    n = dataset.graph.n
    solver.top_k(5, destinations=(1, 2, 3), k=2)  # warm-up: pools, caches
    tracemalloc.start()
    try:
        result = solver.top_k(5, destinations=(11, 2_000, 7_777, 9_001, 15_399), k=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.stats.prepared_cache_misses == 1
    assert len(result.paths) == 2
    return peak, n


def test_cache_miss_allocates_only_the_eq2_pass(monkeypatch):
    """On the Python path a prepared-cache miss allocates nothing of
    size O(n) beyond Eq. (2): the ``|L| x n`` temporary of the bound
    vector plus four n-float vectors of slack.  A per-miss export of
    ``G_Q`` (a CSR, its reverse, per-row lists) or a per-entry
    Python-float mirror of the bounds would blow through this (the
    dual-substrate flat kernel peaked near 22 MiB here against a
    2.35 MiB bound)."""
    from repro import native

    monkeypatch.setattr(native, "HAVE_NATIVE", False)
    peak, n = _miss_peak_bytes()
    assert peak < (16 + 4) * 8 * n


def test_cache_miss_on_the_compiled_tier_has_no_eq2_matrix():
    """With the compiled tier Eq. (2) is computed per touched node, so
    a miss has no ``|L| x n`` term at all: a few n-float vectors (the
    entry's padded buffer, its destination flags) at most."""
    from repro import native

    if not native.HAVE_NATIVE:
        pytest.skip("compiled tier not built")
    peak, n = _miss_peak_bytes()
    assert peak < 4 * 8 * n
