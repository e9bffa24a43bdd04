"""Event records: the tracer, span exports, solver integration, hot-path cost."""

from __future__ import annotations

import json

import pytest

import repro.core.kpj as kpj_module
import repro.obs.tracing as tracing_module
from repro.core.kpj import ALGORITHMS, KPJSolver
from repro.datasets.registry import road_network
from repro.obs.metrics import MetricsRegistry
from repro.obs.subspace_report import SubspaceTreeReport
from repro.obs.tracing import (
    SpanTracer,
    chrome_trace,
    folded_stacks,
    phase_durations,
    render_tree,
    spans,
    validate_chrome_trace,
)
from tests.conftest import KERNELS


@pytest.fixture(scope="module")
def sj():
    return road_network("SJ")


def make_solver(sj, **kwargs):
    kwargs.setdefault("landmarks", 8)
    return KPJSolver(sj.graph, sj.categories, **kwargs)


def record(*events, pid=7):
    return {"pid": pid, "events": list(events)}


def by_name(all_spans):
    return {s["name"]: s for s in all_spans}


class TestSpanTracer:
    def test_nesting_and_attrs(self):
        trace = record(
            ("prepare", 1.0, 1.5, "miss"),
            ("query", 0.5, 2.0, ("iter-bound", 3, "q-1", 2)),
        )
        named = by_name(spans(trace))
        outer, inner = named["query"], named["prepare"]
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["id"] < inner["id"]  # ids follow start order
        assert outer["attrs"] == {
            "algorithm": "iter-bound", "k": 3, "query_id": "q-1", "paths": 2,
        }
        assert inner["attrs"] == {"cache": "miss"}
        assert (outer["cat"], inner["cat"]) == ("query", "phase")
        assert (inner["ts"], inner["dur"], inner["pid"]) == (1.0, 0.5, 7)

    def test_add_records_pretimed_span_under_open_parent(self):
        """A pre-timed leaf appended while its container is still open
        (containers are appended when they close) nests under it, even
        when both share an interval."""
        trace = record(
            ("comp_sp", 1.0, 1.25, None),
            ("search", 1.0, 1.25, None),
        )
        named = by_name(spans(trace))
        assert named["comp_sp"]["parent"] == named["search"]["id"]
        assert named["comp_sp"]["dur"] == pytest.approx(0.25)
        assert named["comp_sp"]["attrs"] == {}

    def test_ring_buffer_evicts_oldest(self, monkeypatch):
        """The tracer keeps the last RECORDS_KEPT records, by reference."""
        monkeypatch.setattr(tracing_module, "RECORDS_KEPT", 4)
        tracer = SpanTracer()
        kept = [record(("comp_sp", float(i), i + 0.5, None)) for i in range(10)]
        tracer.records.extend(kept)
        assert list(tracer.records) == kept[6:]
        assert tracer.records[0] is kept[6]
        assert [s["ts"] for s in tracer.spans] == [6.0, 7.0, 8.0, 9.0]

    def test_invalid_construction(self):
        with pytest.raises(TypeError):
            SpanTracer(capacity=4)
        with pytest.raises(TypeError):
            SpanTracer(sample_every=2)

    def test_each_pop_rebuilds_its_iterate(self):
        """An iterate spans its pop's spt_grow and test_lb, or its
        division, and carries the pop's prefix, lb, verdict and length."""
        trace = record(
            ("division", 1.0, 2.0, (0, 4, 1, (9,), 3.0)),
            ("spt_grow", 3.0, 3.5, 3.3),
            ("test_lb", 3.6, 4.0, (1, 3.1, 3.3, "miss", (9, 8), None)),
            ("spt_grow", 5.0, 5.5, 3.6),
            ("test_lb", 5.6, 6.0, (1, 3.2, 3.6, "hit", (9, 7), 3.4)),
            ("iter_bound", 0.5, 7.0, ("spt_i", 2, 1)),
        )
        all_spans = spans(trace)
        pops = [s for s in all_spans if s["name"] == "iterate"]
        assert [p["attrs"] for p in pops] == [
            {"prefix": (9,), "depth": 0, "lb": 3.0, "verdict": "output", "length": 3.0},
            {"prefix": (9, 8), "depth": 1, "lb": 3.1, "verdict": "test-miss"},
            {"prefix": (9, 7), "depth": 1, "lb": 3.2, "verdict": "test-hit",
             "length": 3.4},
        ]
        assert [(p["ts"], p["ts"] + p["dur"]) for p in pops] == [
            (1.0, 2.0), (3.0, 4.0), (5.0, 6.0),
        ]
        (loop,) = [s for s in all_spans if s["name"] == "iter_bound"]
        assert all(p["parent"] == loop["id"] for p in pops)
        for s in all_spans:
            if s["name"] in ("division", "spt_grow", "test_lb"):
                assert all_spans[s["parent"]]["name"] == "iterate"
        assert by_name(all_spans)["test_lb"]["attrs"] == {
            "depth": 1, "lb": 3.2, "tau": 3.6, "verdict": "hit",
        }

    def test_json_revived_record_exports_the_same_spans(self):
        trace = record(
            ("test_lb", 1.0, 2.0, (0, 1.0, 1.1, "hit", (4,), 1.05)),
            ("query", 0.0, 3.0, ("iter-bound", 1, "q-1", 1)),
        )
        revived = json.loads(json.dumps(trace))
        assert isinstance(revived["events"][0], list)
        assert json.loads(json.dumps(spans(revived))) == json.loads(
            json.dumps(spans(trace))
        )

    def test_records_nest_across_records(self):
        """A record's root nests in the innermost event of another
        record that contains it: queries land under their batch."""
        batch = record(
            ("warmup", 0.0, 1.0, None),
            ("batch", 0.0, 10.0, (2, 2)),
            pid=1,
        )
        first = record(
            ("prepare", 2.0, 2.5, "hit"),
            ("query", 2.0, 4.0, ("iter-bound", 3, "q-1", 3)),
            pid=2,
        )
        second = record(("query", 5.0, 9.0, ("iter-bound", 3, "q-2", 3)), pid=3)
        tracer = SpanTracer()
        tracer.records.extend([first, second, batch])
        all_spans = tracer.spans
        assert len({s["id"] for s in all_spans}) == len(all_spans) == 5
        (root,) = [s for s in all_spans if s["parent"] is None]
        assert root["name"] == "batch" and root["pid"] == 1
        named = {(s["name"], s["pid"]): s for s in all_spans}
        assert named["warmup", 1]["parent"] == root["id"]
        assert named["query", 2]["parent"] == root["id"]
        assert named["query", 3]["parent"] == root["id"]
        assert named["prepare", 2]["parent"] == named["query", 2]["id"]

    def test_overlapping_query_records_stay_siblings(self):
        """Resident workers' query records overlap without nesting."""
        batch = record(("batch", 0.0, 10.0, (2, 2)), pid=1)
        slow = record(("query", 2.0, 8.0, ("iter-bound", 3, "q-1", 3)), pid=2)
        fast = record(("query", 3.0, 5.0, ("iter-bound", 3, "q-2", 3)), pid=3)
        all_spans = spans([slow, fast, batch])
        (root,) = [s for s in all_spans if s["name"] == "batch"]
        queries = [s for s in all_spans if s["name"] == "query"]
        assert [q["parent"] for q in queries] == [root["id"], root["id"]]


class TestChromeExport:
    def _sample_tracer(self):
        return record(
            ("test_lb", 1.0, 1.5, (2, 1.0, float("inf"), "hit", (0, 1, 2), 1.2)),
            ("query", 0.5, 2.0, ("iter-bound", 3, "q-1", 1)),
        )

    def test_valid_document(self):
        doc = chrome_trace(self._sample_tracer())
        assert validate_chrome_trace(doc) == 3  # query, iterate, test_lb
        assert json.loads(json.dumps(doc)) == doc  # JSON-serialisable
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["query"]["ph"] == "X"
        assert by_name["query"]["cat"] == "query"
        assert by_name["query"]["pid"] == 7
        # non-finite attrs are stringified, never emitted as floats
        assert isinstance(by_name["test_lb"]["args"]["tau"], str)

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
        assert render_tree(record()) == "(no spans)"

    def test_phase_durations_counts_leaves_only(self):
        tracer = self._sample_tracer()
        totals = phase_durations(tracer)
        assert totals == {"test_lb": pytest.approx(0.5)}


class TestFoldedStacks:
    def _nested_tracer(self):
        return record(
            ("comp_sp", 1.0, 1.4, None),
            ("comp_sp", 1.4, 1.7, None),
            ("search", 0.9, 1.8, None),
            ("query", 0.8, 1.9, ("iter-bound", 3, "q-1", 3)),
        )

    def test_empty_trace(self):
        assert folded_stacks(record()) == ""

    def test_self_time_excludes_children(self):
        trace = record(("inner", 1.0, 2.0, None), ("outer", 0.999, 2.0001, None))
        lines = dict(
            line.rsplit(" ", 1) for line in folded_stacks(trace).splitlines()
        )
        assert set(lines) == {"outer", "outer;inner"}
        assert int(lines["outer;inner"]) == 1_000_000  # 1 s in µs
        # outer's self time is its tiny bookkeeping, not the child's 1 s.
        assert 0 < int(lines["outer"]) < 1_000_000

    def test_same_stack_aggregates(self):
        folded = folded_stacks(self._nested_tracer())
        lines = dict(line.rsplit(" ", 1) for line in folded.splitlines())
        # Both comp_sp leaves fold into one line: 0.4 s + 0.3 s.
        assert int(lines["query;search;comp_sp"]) == pytest.approx(
            700_000, abs=2
        )

    def test_sub_microsecond_spans_stay_visible(self):
        assert folded_stacks(record(("blink", 1.0, 1.0 + 1e-9, None))) == "blink 1"

    def test_semicolons_in_names_escaped(self):
        (line,) = folded_stacks(record(("a;b", 1.0, 1.5, None))).splitlines()
        assert line.startswith("a_b ")

    def test_deterministic_and_sorted(self):
        trace = self._nested_tracer()
        folded = folded_stacks(trace)
        assert folded == folded_stacks(json.loads(json.dumps(trace)))
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
        names = {s["name"] for s in spans(result.trace)}
        assert {"query", "prepare", "search", "comp_sp", "iter_bound",
                "iterate", "test_lb", "division", "spt_grow"} <= names
        # the solver tracer keeps the same record
        assert tracer.records[-1] is result.trace
        assert {s["name"] for s in tracer.spans} == names
        assert result.to_dict()["trace"] == result.trace

    def test_root_span_tiles_elapsed_ms(self, sj):
        solver = make_solver(sj, tracer=SpanTracer())
        result = solver.top_k(3, category="T2", k=5)
        root = [s for s in spans(result.trace) if s["name"] == "query"]
        assert len(root) == 1
        root_ms = root[0]["dur"] * 1e3
        # acceptance criterion: spans tile within 10% of elapsed_ms
        assert root_ms <= result.elapsed_ms
        assert root_ms >= 0.9 * result.elapsed_ms
        # and the children tile the root: prepare + search cover it
        covered = sum(
            s["dur"] for s in spans(result.trace)
            if s["name"] in ("prepare", "search")
        )
        assert covered <= root[0]["dur"]

    def test_every_query_is_traced(self, sj):
        tracer = SpanTracer()
        solver = make_solver(sj, tracer=tracer)
        results = [solver.top_k(s, category="T2", k=3) for s in (3, 5, 7)]
        assert all(r.trace is not None for r in results)
        assert list(tracer.records) == [r.trace for r in results]
        assert all(kept is r.trace for kept, r in zip(tracer.records, results))

    def test_registry_alone_records_sums_and_drops(self, sj, monkeypatch):
        """A registry turns the record on, sums it, and keeps nothing."""
        made = []

        def counted():
            made.append(tracing_module.new_record())
            return made[-1]

        monkeypatch.setattr(kpj_module, "new_record", counted)
        result = make_solver(sj, metrics=MetricsRegistry()).top_k(
            3, category="T2", k=3
        )
        assert result.trace is None
        (kept,) = made
        assert result.metrics["phases"]["test_lb"][1] == sum(
            1 for event in kept["events"] if event[0] == "test_lb"
        )

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
                s for s in spans(result.trace) if s["name"] == "prepare"
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

    def test_traced_query_chrome_trace_validates(self, sj):
        result = make_solver(sj, tracer=SpanTracer()).top_k(
            3, category="T2", k=5
        )
        doc = chrome_trace(result.trace)
        assert validate_chrome_trace(doc) == len(spans(result.trace))

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
                s for s in spans(result.trace) if s["name"] == "iter_bound"
            ]
            assert search["attrs"]["bound_kind"] == kind, algorithm

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_registry_phases_are_the_record_sums(self, sj, algorithm):
        """Both views read one timing: each recorded phase's registry
        entry is exactly [its summed seconds, its event count]."""
        solver = make_solver(sj, metrics=MetricsRegistry(), tracer=SpanTracer())
        result = solver.top_k(3, category="T2", k=5, algorithm=algorithm)
        durations = phase_durations(result.trace)
        assert "prepare" in durations
        for name, seconds in durations.items():
            calls = sum(1 for event in result.trace["events"] if event[0] == name)
            assert result.metrics["phases"][name] == [seconds, calls], name


class TestDisabledHotPath:
    def test_disabled_tracer_never_allocates_spans(self, sj, monkeypatch):
        """With no observer the record is never made nor summed."""
        def boom(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("record made on the disabled path")

        monkeypatch.setattr(kpj_module, "new_record", boom)
        monkeypatch.setattr(kpj_module, "fold", boom)
        solver = make_solver(sj)
        for algorithm in ("iter-bound", "iter-bound-sptp", "iter-bound-spti"):
            result = solver.top_k(3, category="T2", k=5, algorithm=algorithm)
            assert result.trace is None

    def test_disabled_tracer_no_tracing_allocations(self, sj):
        """tracemalloc sees zero allocations from tracing.py when off."""
        import tracemalloc

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
