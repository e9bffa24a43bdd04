"""Structured query log: ids, events, slow dumps, solver integration."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.obs.log import (
    LOG_VERSION,
    QueryLogger,
    load_slow_query,
    new_query_id,
    parse_query_log,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer, render_tree, spans


@pytest.fixture(scope="module")
def sj():
    return road_network("SJ")


def make_solver(sj, **kwargs):
    kwargs.setdefault("landmarks", 8)
    return KPJSolver(sj.graph, sj.categories, **kwargs)


class TestQueryIds:
    def test_shape_and_monotonicity(self):
        a, b = new_query_id(), new_query_id()
        pid = f"{os.getpid():x}"
        assert a.startswith(f"q-{pid}-")
        assert a != b
        assert a < b  # zero-padded sequence sorts by issue order


class TestQueryLogger:
    def test_requires_exactly_one_sink(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            QueryLogger()
        with pytest.raises(ValueError, match="exactly one"):
            QueryLogger(io.StringIO(), path=tmp_path / "x.jsonl")

    def test_rejects_negative_slow_ms(self):
        with pytest.raises(ValueError, match="slow_ms"):
            QueryLogger(io.StringIO(), slow_ms=-1.0)

    def test_emit_writes_single_sorted_json_line(self):
        buf = io.StringIO()
        QueryLogger(buf).emit({"b": 1, "a": 2, "event": "x"})
        line = buf.getvalue()
        assert line.endswith("\n") and line.count("\n") == 1
        assert json.loads(line) == {"a": 2, "b": 1, "event": "x"}
        assert line.index('"a"') < line.index('"b"')  # sort_keys

    def test_path_sink_appends(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with QueryLogger(path=path) as log:
            log.emit({"event": "query", "v": LOG_VERSION, "ts": 0, "query_id": "q-1-1"})
        with QueryLogger(path=path) as log:
            log.emit({"event": "query", "v": LOG_VERSION, "ts": 1, "query_id": "q-1-2"})
        events = parse_query_log(path.read_text())
        assert [e["query_id"] for e in events] == ["q-1-1", "q-1-2"]

    def test_log_query_event_contents(self, sj):
        solver = make_solver(sj)
        result = solver.top_k(3, category="T2", k=4)
        buf = io.StringIO()
        log = QueryLogger(buf)
        event = log.log_query(
            result,
            query_id="q-abc-000007",
            sources=(3,),
            category="T2",
            destinations=9,
            k=4,
        )
        (parsed,) = parse_query_log(buf.getvalue())
        assert parsed == json.loads(json.dumps(event))
        assert parsed["query_id"] == "q-abc-000007"
        assert parsed["algorithm"] == result.algorithm
        assert parsed["paths"] == result.k_found
        assert parsed["best_length"] == pytest.approx(result.paths[0].length)
        assert parsed["stats"] == result.stats.nonzero()
        assert "slow" not in parsed  # no threshold configured


class TestParseQueryLog:
    def test_skips_blank_lines(self):
        text = '\n{"event": "query", "v": %d, "ts": 0, "query_id": "q-1-1"}\n\n' % (
            LOG_VERSION
        )
        assert len(parse_query_log(text)) == 1

    @pytest.mark.parametrize(
        "line, match",
        [
            ("not json", "invalid JSON"),
            ("[1, 2]", "expected an object"),
            ('{"v": 1, "ts": 0, "query_id": "q"}', "missing 'event'"),
            (
                '{"event": "query", "v": 99, "ts": 0, "query_id": "q"}',
                "unsupported version",
            ),
            ('{"event": "query", "v": 1, "ts": 0, "query_id": ""}', "bad query_id"),
        ],
    )
    def test_rejects_malformed_lines_by_number(self, line, match):
        good = '{"event": "query", "v": %d, "ts": 0, "query_id": "q-1-1"}' % (
            LOG_VERSION
        )
        with pytest.raises(ValueError, match=match) as err:
            parse_query_log(good + "\n" + line + "\n")
        assert "line 2" in str(err.value)


class TestSlowDumps:
    def test_threshold_zero_dumps_every_query(self, sj, tmp_path):
        log = QueryLogger(
            path=tmp_path / "q.jsonl", slow_ms=0.0, slow_dir=tmp_path / "slow"
        )
        solver = make_solver(
            sj,
            query_log=log,
            metrics=MetricsRegistry(),
            tracer=SpanTracer(),
        )
        result = solver.top_k(3, category="T2", k=3)
        log.close()
        assert log.slow_count == 1
        (event,) = parse_query_log((tmp_path / "q.jsonl").read_text())
        assert event["slow"] is True
        assert event["query_id"] == result.query_id
        dump = load_slow_query(event["slow_dump"])
        # The embedded event predates the dump path being stamped on
        # the log line (a dump cannot name its own file).
        assert dump.event == {
            k: v for k, v in event.items() if k != "slow_dump"
        }
        # The metrics snapshot revives into a working registry...
        assert dump.metrics.phase_seconds() > 0
        assert dump.metrics.render_prom().startswith("# TYPE")
        # ...and the trace snapshot renders, tagged with the same id.
        assert result.query_id in render_tree(dump.trace)

    def test_fast_query_is_not_dumped(self, sj, tmp_path):
        log = QueryLogger(path=tmp_path / "q.jsonl", slow_ms=1e9)
        solver = make_solver(sj, query_log=log)
        solver.top_k(3, category="T2", k=3)
        log.close()
        (event,) = parse_query_log((tmp_path / "q.jsonl").read_text())
        assert "slow" not in event
        assert log.slow_count == 0

    def test_dump_without_trace_or_metrics_round_trips(self, sj, tmp_path):
        log = QueryLogger(path=tmp_path / "q.jsonl", slow_ms=0.0)
        solver = make_solver(sj, query_log=log)
        solver.top_k(3, category="T2", k=3)
        log.close()
        (event,) = parse_query_log((tmp_path / "q.jsonl").read_text())
        dump = load_slow_query(event["slow_dump"])
        assert dump.metrics is None
        assert dump.trace is None

    def test_load_rejects_non_dump_files(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a kpj-slow-query"):
            load_slow_query(bogus)


class TestSolverIntegration:
    def test_result_carries_query_id(self, sj):
        solver = make_solver(sj)
        a = solver.top_k(3, category="T2", k=3)
        b = solver.top_k(3, category="T2", k=3)
        assert a.query_id and b.query_id
        assert a.query_id != b.query_id
        assert a.to_dict()["query_id"] == a.query_id

    def test_spans_tagged_with_query_id(self, sj):
        solver = make_solver(sj, tracer=SpanTracer())
        result = solver.top_k(3, category="T2", k=3)
        by_id = {s["id"]: s for s in spans(result.trace)}
        (root,) = [s for s in by_id.values() if s["parent"] is None]
        assert root["name"] == "query"
        assert root["attrs"]["query_id"] == result.query_id
        for span in by_id.values():
            while span["parent"] is not None:  # every span descends from it
                span = by_id[span["parent"]]
            assert span is root

    def test_one_event_per_query_in_order(self, sj, tmp_path):
        path = tmp_path / "q.jsonl"
        log = QueryLogger(path=path)
        solver = make_solver(sj, query_log=log)
        ids = [solver.top_k(s, category="T2", k=3).query_id for s in (3, 40, 99)]
        log.close()
        events = parse_query_log(path.read_text())
        assert [e["query_id"] for e in events] == ids

    def test_logging_does_not_change_answers(self, sj, tmp_path):
        plain = make_solver(sj).top_k(3, category="T2", k=5)
        log = QueryLogger(path=tmp_path / "q.jsonl", slow_ms=0.0)
        solver = make_solver(sj, query_log=log, tracer=SpanTracer())
        logged = solver.top_k(3, category="T2", k=5)
        log.close()
        assert logged.lengths == plain.lengths
        assert [p.nodes for p in logged.paths] == [p.nodes for p in plain.paths]
