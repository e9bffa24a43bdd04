"""Unit tests for search tracing."""

import pytest

from repro.core.iter_bound import iter_bound
from repro.core.stats import SearchStats
from repro.core.trace import SearchTrace, TraceEvent
from repro.graph.virtual import build_query_graph
from repro.landmarks.index import ZERO_BOUNDS
from tests.conftest import KERNELS


class TestTraceEvent:
    def test_render_contains_fields(self):
        event = TraceEvent("test-hit", (0, 1), 3.0, tau=4.0, length=3.5)
        text = event.render()
        assert "test-hit" in text
        assert "tau=4" in text
        assert "length=3.5" in text

    def test_render_optional_fields_omitted(self):
        text = TraceEvent("output", (0,), 2.0).render()
        assert "tau=" not in text
        assert "length=" not in text


class TestSearchTrace:
    def run_traced(self, paper_graph, paper_built, k=3):
        v = paper_built.node_id
        qg = build_query_graph(
            paper_graph, (v("v1"),), (v("v4"), v("v6"), v("v7"))
        )
        trace = SearchTrace()
        paths = iter_bound(qg, k, ZERO_BOUNDS, trace=trace)
        return trace, paths

    def test_records_one_output_per_path(self, paper_graph, paper_built):
        trace, paths = self.run_traced(paper_graph, paper_built)
        assert trace.counts().get("output") == len(paths) == 3

    def test_tau_schedule_is_positive_and_bounded_below_by_first(
        self, paper_graph, paper_built
    ):
        trace, paths = self.run_traced(paper_graph, paper_built)
        schedule = trace.tau_schedule()
        assert schedule, "no TestLB recorded"
        first_length = paths[0].length
        assert all(tau > first_length for tau in schedule)

    def test_hits_and_misses_sum_to_lb_tests(self, paper_graph, paper_built):
        from repro.core.stats import SearchStats

        v = paper_built.node_id
        qg = build_query_graph(
            paper_graph, (v("v1"),), (v("v4"), v("v6"), v("v7"))
        )
        trace = SearchTrace()
        stats = SearchStats()
        iter_bound(qg, 3, ZERO_BOUNDS, stats=stats, trace=trace)
        counts = trace.counts()
        tested = (
            counts.get("test-hit", 0)
            + counts.get("test-miss", 0)
            + counts.get("retire", 0)
        )
        assert tested == stats.lb_tests

    def test_render_limit(self, paper_graph, paper_built):
        trace, _ = self.run_traced(paper_graph, paper_built)
        full = trace.render()
        short = trace.render(limit=1)
        assert "totals:" in full
        assert "more events" in short
        assert len(short.splitlines()) <= 3

    def test_no_trace_means_no_overhead_paths_identical(
        self, paper_graph, paper_built
    ):
        v = paper_built.node_id
        qg = build_query_graph(
            paper_graph, (v("v1"),), (v("v4"), v("v6"), v("v7"))
        )
        traced = iter_bound(qg, 3, ZERO_BOUNDS, trace=SearchTrace())
        plain = iter_bound(qg, 3, ZERO_BOUNDS)
        assert [p.length for p in traced] == [p.length for p in plain]

    def test_len(self, paper_graph, paper_built):
        trace, _ = self.run_traced(paper_graph, paper_built)
        assert len(trace) == len(trace.events) > 0


def _tallies(trace: SearchTrace) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in trace.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


class TestTraceEquivalence:
    """The narrated search is the search that ran: one event per
    output and per TestLB verdict, and recording changes nothing."""

    def _check(self, qg, k, bounds, source_bounds):
        from repro.core.spt_incremental import iter_bound_spti

        bare_stats, traced_stats, trace = SearchStats(), SearchStats(), SearchTrace()
        bare = iter_bound_spti(qg, k, bounds, source_bounds, stats=bare_stats)
        traced = iter_bound_spti(
            qg, k, bounds, source_bounds, stats=traced_stats, trace=trace
        )
        assert [(p.length, p.nodes) for p in traced] == [
            (p.length, p.nodes) for p in bare
        ]
        assert traced_stats == bare_stats
        tallies = _tallies(trace)
        assert tallies.get("output", 0) == len(traced)
        assert tallies.get("test-hit", 0) == traced_stats.lb_test_hits
        assert tallies.get("test-miss", 0) == traced_stats.lb_test_misses
        assert tallies.get("retire", 0) == traced_stats.lb_test_retires

    def test_events_match_the_search_counters(self, paper_graph, paper_built):
        v = paper_built.node_id
        qg = build_query_graph(
            paper_graph, (v("v1"),), (v("v4"), v("v6"), v("v7"))
        )
        self._check(qg, 3, ZERO_BOUNDS, ZERO_BOUNDS)

    def test_equivalence_on_registry_dataset(self):
        from repro.datasets.registry import road_network
        from repro.landmarks.index import LandmarkIndex

        dataset = road_network("SJ")
        lm = LandmarkIndex.build(dataset.graph, 4)
        destinations = dataset.categories.nodes_of("T2")
        qg = build_query_graph(dataset.graph, (100,), destinations)
        self._check(
            qg, 5, lm.to_target_bounds(qg.destinations),
            lm.lazy_source_bounds(qg.sources),
        )


class TestExplainCLI:
    def test_explain_prints_narrative(self, capsys):
        from repro.cli import main

        code = main(
            [
                "explain",
                "--dataset",
                "SJ",
                "--source",
                "100",
                "--category",
                "T2",
                "--k",
                "2",
                "--landmarks",
                "4",
                "--limit",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "iter-bound on SJ" in out
        assert "totals:" in out
        assert "found 2 paths" in out

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_explain_spti_narrates_either_kernel(self, capsys, kernel):
        from repro.cli import main

        code = main(
            [
                "explain",
                "--dataset",
                "SJ",
                "--source",
                "100",
                "--category",
                "T2",
                "--k",
                "2",
                "--landmarks",
                "4",
                "--algorithm",
                "iter-bound-spti",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "iter-bound-spti on SJ" in out
        assert "totals:" in out
        assert "found 2 paths" in out

    def test_explain_bad_source(self, capsys):
        from repro.cli import main

        code = main(
            [
                "explain",
                "--dataset",
                "SJ",
                "--source",
                "123456",
                "--category",
                "T2",
            ]
        )
        assert code == 2
