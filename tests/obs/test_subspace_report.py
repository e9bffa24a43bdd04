"""SubspaceTreeReport: reconstruction from a record's spans."""

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


def record(*events):
    """A record of ``(name, attrs)`` events, one time unit apart."""
    return {"pid": 1, "events": [
        (name, float(i), i + 0.5, attrs) for i, (name, attrs) in enumerate(events)
    ]}


def probe(depth, verdict):
    """A ``test_lb`` event's attrs: depth, lb, tau, verdict, prefix, length."""
    prefix = tuple(range(depth + 1))
    return ("test_lb", (depth, 1.0, 1.1, verdict, prefix, 1.0 if verdict == "hit" else None))


def division(depth, children, pruned):
    """A ``division`` event's attrs: depth, children, pruned, prefix, lb."""
    return ("division", (depth, children, pruned, tuple(range(depth + 1)), 1.0))


class TestFromSpans:
    def test_empty(self):
        report = SubspaceTreeReport.from_spans(None)
        assert report.rows == {}
        assert report.subspaces_created is None
        assert report.subspaces_pruned is None
        assert "no subspace events" in report.render()

    def test_counts_and_totals(self):
        trace = record(
            division(0, 5, 2),
            probe(1, "hit"),
            probe(1, "miss"),
            probe(2, "retire"),
            division(1, 3, 0),
            ("iter_bound", ("spt_i", 4, 2)),
        )
        report = SubspaceTreeReport.from_spans(trace)
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
        text = report.render()
        assert "bound: spt_i" in text
        assert "created=9" in text and "pruned=7" in text

    def test_render_without_divisions_omits_fanout_columns(self):
        report = SubspaceTreeReport.from_spans(record(probe(0, "miss")))
        assert report.subspaces_created is None
        text = report.render()
        assert "children" not in text
        assert "tested" in text

    def test_accepts_live_tracer(self):
        tracer = SpanTracer()
        tracer.records.append(record(probe(0, "hit")))
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
