"""Span tracer: recording, exports, solver integration, hot-path cost."""

from __future__ import annotations

import json
import time

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.obs.subspace_report import SubspaceTreeReport
from repro.obs.tracing import (
    SpanTracer,
    chrome_trace,
    folded_stacks,
    maybe_span,
    phase_durations,
    render_tree,
    validate_chrome_trace,
)
from tests.conftest import KERNELS


@pytest.fixture(scope="module")
def sj():
    return road_network("SJ")


def make_solver(sj, **kwargs):
    kwargs.setdefault("landmarks", 8)
    return KPJSolver(sj.graph, sj.categories, **kwargs)


class TestSpanTracer:
    def test_nesting_and_attrs(self):
        tracer = SpanTracer()
        with tracer.span("outer", cat="query", k=3) as outer:
            with tracer.span("inner", cat="phase") as inner:
                time.sleep(0.001)
            outer["attrs"]["late"] = True
        spans = tracer.spans
        assert [s["name"] for s in spans] == ["inner", "outer"]  # children first
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"k": 3, "late": True}
        assert 0 < inner["dur"] <= outer["dur"]
        # children are contained in the parent interval
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-9

    def test_end_closes_forgotten_children(self):
        tracer = SpanTracer()
        outer = tracer.begin("outer")
        tracer.begin("forgotten")
        tracer.end(outer)
        names = {s["name"] for s in tracer.spans}
        assert names == {"outer", "forgotten"}
        assert all(s["dur"] >= 0 for s in tracer.spans)

    def test_add_records_pretimed_span_under_open_parent(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            t0 = time.perf_counter()
            t1 = t0 + 0.25
            span = tracer.add("leaf", t0, t1, cat="phase", attrs={"x": 1})
        assert span["parent"] == outer["id"]
        assert span["dur"] == pytest.approx(0.25)
        assert span["attrs"] == {"x": 1}

    def test_ring_buffer_evicts_oldest(self):
        tracer = SpanTracer(capacity=4)
        for i in range(10):
            tracer.add(f"s{i}", float(i), float(i) + 0.5)
        assert len(tracer) == 4
        assert tracer.evicted == 6
        assert [s["name"] for s in tracer.spans] == ["s6", "s7", "s8", "s9"]
        assert tracer.as_dict()["evicted"] == 6

    def test_sampling_stride(self):
        tracer = SpanTracer(sample_every=3)
        decisions = [tracer.sample() for _ in range(9)]
        assert decisions == [True, False, False] * 3
        assert all(SpanTracer(sample_every=1).sample() for _ in range(5))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SpanTracer(capacity=0)
        with pytest.raises(ValueError):
            SpanTracer(sample_every=0)

    def test_as_dict_includes_open_spans(self):
        tracer = SpanTracer()
        tracer.begin("still-open")
        snap = tracer.as_dict()
        assert len(snap["spans"]) == 1
        assert snap["spans"][0]["attrs"]["open"] is True
        assert snap["spans"][0]["dur"] >= 0
        # the tracer itself is not mutated by snapshotting
        assert len(tracer) == 0

    def test_absorb_rebases_ids_and_reroots(self):
        child = SpanTracer()
        with child.span("query"):
            child.add("leaf", 1.0, 2.0, cat="phase")
        parent = SpanTracer()
        batch = parent.begin("batch", cat="batch")
        parent.absorb(child.as_dict())
        parent.end(batch)
        spans = {s["name"]: s for s in parent.spans}
        assert spans["query"]["parent"] == batch["id"]
        assert spans["leaf"]["parent"] == spans["query"]["id"]
        ids = [s["id"] for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_absorb_none_is_noop(self):
        tracer = SpanTracer()
        tracer.absorb(None)
        assert len(tracer) == 0

    def test_maybe_span_disabled_is_nullcontext(self):
        with maybe_span(None, "anything") as span:
            assert span is None


class TestChromeExport:
    def _sample_tracer(self):
        tracer = SpanTracer()
        with tracer.span("query", cat="query", algorithm="iter-bound", k=3):
            tracer.add("test_lb", 1.0, 1.5, cat="phase",
                       attrs={"depth": 2, "verdict": "hit", "inf": float("inf")})
        return tracer

    def test_valid_document(self):
        doc = chrome_trace(self._sample_tracer())
        assert validate_chrome_trace(doc) == 2
        assert json.loads(json.dumps(doc)) == doc  # JSON-serialisable
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["query"]["ph"] == "X"
        assert by_name["query"]["cat"] == "query"
        # non-finite attrs are stringified, never emitted as floats
        assert isinstance(by_name["test_lb"]["args"]["inf"], str)

    def test_timestamps_relative_microseconds(self):
        doc = chrome_trace(self._sample_tracer())
        ts = [e["ts"] for e in doc["traceEvents"]]
        assert min(ts) == 0.0
        assert all(t >= 0 for t in ts)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("traceEvents"),
            lambda d: d["traceEvents"].clear(),
            lambda d: d["traceEvents"][0].pop("ph"),
            lambda d: d["traceEvents"][0].update(ph="B"),
            lambda d: d["traceEvents"][0].update(ts=float("nan")),
            lambda d: d["traceEvents"][0].update(dur=-1.0),
            lambda d: d["traceEvents"][0].update(pid="zero"),
            lambda d: d["traceEvents"][0].update(args={"k": [1, 2]}),
        ],
    )
    def test_rejects_malformed(self, mutate):
        doc = chrome_trace(self._sample_tracer())
        mutate(doc)
        with pytest.raises(ValueError):
            validate_chrome_trace(doc)

    def test_render_tree(self):
        text = render_tree(self._sample_tracer())
        assert "query" in text and "test_lb" in text
        assert text.index("query") < text.index("test_lb")
        assert render_tree({"spans": []}) == "(no spans)"

    def test_phase_durations_counts_leaves_only(self):
        tracer = self._sample_tracer()
        totals = phase_durations(tracer)
        assert totals == {"test_lb": pytest.approx(0.5)}


class TestFoldedStacks:
    def _nested_tracer(self):
        tracer = SpanTracer()
        with tracer.span("query"):
            with tracer.span("search"):
                tracer.add("test_lb", 1.0, 1.4)
                tracer.add("test_lb", 1.4, 1.7)
        return tracer

    def test_empty_trace(self):
        assert folded_stacks({"spans": []}) == ""

    def test_self_time_excludes_children(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            tracer.add("inner", 1.0, 2.0)
        lines = dict(
            line.rsplit(" ", 1) for line in folded_stacks(tracer).splitlines()
        )
        assert set(lines) == {"outer", "outer;inner"}
        assert int(lines["outer;inner"]) == 1_000_000  # 1 s in µs
        # outer's self time is its tiny bookkeeping, not the child's 1 s.
        assert 0 < int(lines["outer"]) < 1_000_000

    def test_same_stack_aggregates(self):
        folded = folded_stacks(self._nested_tracer())
        lines = dict(line.rsplit(" ", 1) for line in folded.splitlines())
        # Both test_lb leaves fold into one line: 0.4 s + 0.3 s.
        assert int(lines["query;search;test_lb"]) == pytest.approx(
            700_000, abs=2
        )

    def test_sub_microsecond_spans_stay_visible(self):
        tracer = SpanTracer()
        tracer.add("blink", 1.0, 1.0 + 1e-9)
        assert folded_stacks(tracer) == "blink 1"

    def test_semicolons_in_names_escaped(self):
        tracer = SpanTracer()
        tracer.add("a;b", 1.0, 1.5)
        (line,) = folded_stacks(tracer).splitlines()
        assert line.startswith("a_b ")

    def test_deterministic_and_sorted(self):
        tracer = self._nested_tracer()
        folded = folded_stacks(tracer)
        assert folded == folded_stacks(tracer.as_dict())
        stacks = [line.rsplit(" ", 1)[0] for line in folded.splitlines()]
        assert stacks == sorted(stacks)

    def test_traced_query_folds(self, sj):
        result = make_solver(sj, tracer=SpanTracer()).top_k(
            0, category="T2", k=3
        )
        folded = folded_stacks(result.trace)
        stacks = {line.rsplit(" ", 1)[0] for line in folded.splitlines()}
        assert any(s.startswith("query;search") for s in stacks)
        # Every line is "<stack> <integer µs>" — the flamegraph contract.
        for line in folded.splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 1


class TestSolverIntegration:
    def test_trace_none_by_default(self, sj):
        result = make_solver(sj).top_k(0, category="T2", k=3)
        assert result.trace is None
        assert "trace" not in result.to_dict()

    def test_sampled_query_records_span_tree(self, sj):
        tracer = SpanTracer()
        solver = make_solver(sj, tracer=tracer)
        result = solver.top_k(3, category="T2", k=5)
        assert result.trace is not None
        names = {s["name"] for s in result.trace["spans"]}
        assert {"query", "prepare", "search", "comp_sp", "iter_bound",
                "iterate", "test_lb", "division", "spt_grow"} <= names
        # the solver tracer absorbed the same tree
        assert {s["name"] for s in tracer.spans} == names
        assert result.to_dict()["trace"] == result.trace

    def test_root_span_tiles_elapsed_ms(self, sj):
        solver = make_solver(sj, tracer=SpanTracer())
        result = solver.top_k(3, category="T2", k=5)
        root = [s for s in result.trace["spans"] if s["name"] == "query"]
        assert len(root) == 1
        root_ms = root[0]["dur"] * 1e3
        # acceptance criterion: spans tile within 10% of elapsed_ms
        assert root_ms <= result.elapsed_ms
        assert root_ms >= 0.9 * result.elapsed_ms
        # and the children tile the root: prepare + search cover it
        covered = sum(
            s["dur"] for s in result.trace["spans"]
            if s["name"] in ("prepare", "search")
        )
        assert covered <= root[0]["dur"]

    def test_sample_every_skips_queries(self, sj):
        solver = make_solver(sj, tracer=SpanTracer(sample_every=2))
        first = solver.top_k(3, category="T2", k=3)
        second = solver.top_k(5, category="T2", k=3)
        third = solver.top_k(7, category="T2", k=3)
        assert first.trace is not None
        assert second.trace is None
        assert third.trace is not None

    def test_results_identical_with_and_without_tracer(self, sj):
        plain = make_solver(sj).top_k(100, category="T2", k=5)
        traced = make_solver(sj, tracer=SpanTracer()).top_k(
            100, category="T2", k=5
        )
        assert [p.nodes for p in plain.paths] == [p.nodes for p in traced.paths]
        assert plain.lengths == traced.lengths

    def test_prepare_span_records_cache_verdict(self, sj):
        solver = make_solver(sj, tracer=SpanTracer())
        first = solver.top_k(3, category="T2", k=3)
        second = solver.top_k(5, category="T2", k=3)

        def cache_attr(result):
            (prep,) = [
                s for s in result.trace["spans"] if s["name"] == "prepare"
            ]
            return prep["attrs"]["cache"]

        assert cache_attr(first) == "miss"
        assert cache_attr(second) == "hit"

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_report_totals_match_stats(self, sj, kernel):
        """SubspaceTreeReport from spans == SearchStats."""
        solver = make_solver(sj, tracer=SpanTracer())
        for algorithm in ("iter-bound", "iter-bound-sptp", "iter-bound-spti"):
            result = solver.top_k(3, category="T2", k=8, algorithm=algorithm)
            report = SubspaceTreeReport.from_spans(result.trace)
            stats = result.stats
            assert report.lb_tests == stats.lb_tests, algorithm
            assert report.lb_test_failures == stats.lb_test_failures, algorithm
            assert report.subspaces_created == stats.subspaces_created, algorithm
            assert report.subspaces_pruned == stats.subspaces_pruned, algorithm
            assert report.complete

    def test_traced_query_chrome_trace_validates(self, sj):
        result = make_solver(sj, tracer=SpanTracer()).top_k(
            3, category="T2", k=5
        )
        doc = chrome_trace(result.trace)
        assert validate_chrome_trace(doc) == len(result.trace["spans"])

    def test_bound_kind_per_variant(self, sj):
        solver = make_solver(sj, tracer=SpanTracer())
        expected = {
            "iter-bound": "landmark",
            "iter-bound-sptp": "spt_p",
            "iter-bound-spti": "spt_i",
            "iter-bound-spti-nl": "spt_i",
        }
        for algorithm, kind in expected.items():
            result = solver.top_k(3, category="T2", k=4, algorithm=algorithm)
            (search,) = [
                s for s in result.trace["spans"] if s["name"] == "iter_bound"
            ]
            assert search["attrs"]["bound_kind"] == kind, algorithm


class TestDisabledHotPath:
    def test_disabled_tracer_never_allocates_spans(self, sj, monkeypatch):
        """With tracer=None the span machinery must never be entered."""
        def boom(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("span recorded on the disabled path")

        monkeypatch.setattr(SpanTracer, "begin", boom)
        monkeypatch.setattr(SpanTracer, "end", boom)
        monkeypatch.setattr(SpanTracer, "add", boom)
        monkeypatch.setattr(SpanTracer, "absorb", boom)
        solver = make_solver(sj)
        for algorithm in ("iter-bound", "iter-bound-sptp", "iter-bound-spti"):
            result = solver.top_k(3, category="T2", k=5, algorithm=algorithm)
            assert result.trace is None

    def test_disabled_tracer_no_tracing_allocations(self, sj):
        """tracemalloc sees zero allocations from tracing.py when off."""
        import tracemalloc

        import repro.obs.tracing as tracing_module

        solver = make_solver(sj)
        solver.top_k(3, category="T2", k=5)  # warm caches
        trace_filter = tracemalloc.Filter(True, tracing_module.__file__)
        tracemalloc.start()
        try:
            solver.top_k(3, category="T2", k=5)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = snapshot.filter_traces([trace_filter]).statistics("filename")
        assert stats == [], stats
