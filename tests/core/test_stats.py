"""Unit tests for the SearchStats counters."""

from dataclasses import fields

from repro.core.stats import WORK_PARITY_FIELDS, SearchStats


class TestSearchStats:
    def test_defaults_zero(self):
        stats = SearchStats()
        assert all(value == 0 for value in stats.as_dict().values())

    def test_merge_adds_fieldwise(self):
        a = SearchStats(nodes_settled=3, lb_tests=1)
        b = SearchStats(nodes_settled=4, shortest_path_computations=2)
        result = a.merge(b)
        assert result is a
        assert a.nodes_settled == 7
        assert a.lb_tests == 1
        assert a.shortest_path_computations == 2

    def test_merge_chainable(self):
        total = SearchStats()
        for _ in range(3):
            total.merge(SearchStats(edges_relaxed=2))
        assert total.edges_relaxed == 6

    def test_as_dict_covers_all_fields(self):
        d = SearchStats().as_dict()
        assert set(d) == {
            "shortest_path_computations",
            "lower_bound_computations",
            "lb_tests",
            "lb_test_failures",
            "lb_test_hits",
            "lb_test_misses",
            "lb_test_retires",
            "nodes_settled",
            "edges_relaxed",
            "heap_pushes",
            "heap_pops",
            "spt_nodes",
            "subspaces_created",
            "subspaces_pruned",
            "prepared_cache_hits",
            "prepared_cache_misses",
        }

    def test_parity_fields_are_real_fields(self):
        names = {f.name for f in fields(SearchStats)}
        # Every counter is a work counter: none depends on which code
        # path ran, so all of them are pinned.
        assert set(WORK_PARITY_FIELDS) == names

    def test_mutation(self):
        stats = SearchStats()
        stats.nodes_settled += 5
        assert stats.as_dict()["nodes_settled"] == 5

    def test_nonzero_filters_zero_counters(self):
        stats = SearchStats(nodes_settled=3, lb_tests=1)
        assert stats.nonzero() == {"nodes_settled": 3, "lb_tests": 1}

    def test_nonzero_empty_when_fresh(self):
        assert SearchStats().nonzero() == {}
