"""SubspaceTreeReport: reconstruction from span snapshots."""

from __future__ import annotations

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.obs.subspace_report import DepthRow, SubspaceTreeReport
from repro.obs.tracing import SpanTracer
from tests.conftest import KERNELS


@pytest.fixture(scope="module")
def sj():
    return road_network("SJ")


def span(name, attrs):
    return {"id": 0, "parent": None, "name": name, "cat": "phase",
            "ts": 0.0, "dur": 0.0, "pid": 1, "attrs": attrs}


class TestFromSpans:
    def test_empty(self):
        report = SubspaceTreeReport.from_spans(None)
        assert report.rows == {}
        assert report.subspaces_created is None
        assert report.subspaces_pruned is None
        assert "no subspace events" in report.render()

    def test_counts_and_totals(self):
        snapshot = {
            "spans": [
                span("division", {"depth": 0, "children": 5, "pruned": 2}),
                span("test_lb", {"depth": 1, "verdict": "hit"}),
                span("test_lb", {"depth": 1, "verdict": "miss"}),
                span("test_lb", {"depth": 2, "verdict": "retire"}),
                span("division", {"depth": 1, "children": 3, "pruned": 0}),
                span("iter_bound",
                     {"bound_kind": "spt_i", "leftover": 4, "results": 2}),
            ],
            "evicted": 0,
        }
        report = SubspaceTreeReport.from_spans(snapshot)
        assert report.bound_kind == "spt_i"
        assert report.lb_tests == 3
        assert report.lb_test_failures == 2  # miss + retire
        assert report.outputs == 2
        assert report.subspaces_created == 1 + 5 + 3
        assert report.subspaces_pruned == 2 + 1 + 4  # born + retired + leftover
        assert report.max_depth == 2
        assert report.rows[1] == DepthRow(
            depth=1, tested=2, hits=1, misses=1, expanded=1, children=3
        )
        assert report.complete
        text = report.render()
        assert "bound: spt_i" in text
        assert "created=9" in text and "pruned=7" in text

    def test_eviction_marks_incomplete(self):
        report = SubspaceTreeReport.from_spans({"spans": [], "evicted": 3})
        assert not report.complete

    def test_render_without_divisions_omits_fanout_columns(self):
        report = SubspaceTreeReport.from_spans(
            {"spans": [span("test_lb", {"depth": 0, "verdict": "miss"})]}
        )
        assert report.subspaces_created is None
        text = report.render()
        assert "children" not in text
        assert "tested" in text

    def test_accepts_live_tracer(self):
        tracer = SpanTracer()
        tracer.add("test_lb", 0.0, 0.1, cat="phase",
                   attrs={"depth": 0, "verdict": "hit"})
        report = SubspaceTreeReport.from_spans(tracer)
        assert report.lb_tests == 1


class TestSolverParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_report_equals_stats_counters(self, sj, kernel):
        solver = KPJSolver(
            sj.graph, sj.categories, landmarks=8, tracer=SpanTracer(),
        )
        result = solver.top_k(14, category="T2", k=10)
        report = SubspaceTreeReport.from_spans(result.trace)
        assert report.lb_tests == result.stats.lb_tests
        assert report.lb_test_failures == result.stats.lb_test_failures
        assert report.subspaces_created == result.stats.subspaces_created
        assert report.subspaces_pruned == result.stats.subspaces_pruned
        ratio = report.pruned_expanded_ratio
        assert ratio is None or ratio >= 0
