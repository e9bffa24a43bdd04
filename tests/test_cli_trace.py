"""CLI tracing surfaces: query --trace/--trace-out, explain --tree,
batch --trace-out."""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs.tracing import validate_chrome_trace


class TestTraceCommand:
    """``query --trace-out FILE``: one query's Chrome trace."""

    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "query",
                "--dataset", "SJ",
                "--source", "3",
                "--category", "T2",
                "--k", "5",
                "--landmarks", "4",
                "--trace-out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        events = validate_chrome_trace(doc)
        assert events > 0
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"query", "search", "iter_bound", "test_lb"} <= names
        assert f"-> {out}" in capsys.readouterr().err

    def test_tree_flag_prints_report(self, tmp_path, capsys):
        code = main(
            [
                "query",
                "--dataset", "SJ",
                "--source", "3",
                "--category", "T2",
                "--landmarks", "4",
                "--trace-out", str(tmp_path / "t.json"),
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "subspace tree" in out

    def test_bad_source_rejected(self, tmp_path, capsys):
        code = main(
            [
                "query",
                "--dataset", "SJ",
                "--source", "-1",
                "--category", "T2",
                "--trace-out", str(tmp_path / "t.json"),
            ]
        )
        assert code == 2
        assert "source must be" in capsys.readouterr().err


class TestQueryTraceFlag:
    def test_prints_span_tree_and_report(self, capsys):
        code = main(
            [
                "query",
                "--dataset", "SJ",
                "--source", "3",
                "--category", "T2",
                "--k", "4",
                "--landmarks", "4",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "length" in out  # the paths themselves still print
        assert "spans:" in out
        assert "iter_bound" in out
        assert "subspace tree" in out


class TestExplainTreeFlag:
    def test_prints_per_depth_table(self, capsys):
        code = main(
            [
                "explain",
                "--dataset", "SJ",
                "--source", "3",
                "--category", "T2",
                "--k", "4",
                "--landmarks", "4",
                "--tree",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "subspace tree" in out
        assert "tested" in out
        assert "totals:" in out


class TestMetricsTraceOut:
    def test_writes_one_trace_per_query(self, tmp_path, capsys):
        workload = tmp_path / "workload.json"
        workload.write_text(
            json.dumps(
                {
                    "name": "trace-out",
                    "dataset": "SJ",
                    "categories": ["T2"],
                    "target_qps": 10.0,
                    "queries": 2,
                    "landmarks": 4,
                    "k": {"kind": "fixed", "value": 3},
                }
            )
        )
        trace_dir = tmp_path / "traces"
        code = main(
            [
                "batch",
                "--spec", str(workload),
                "--metrics", "prom",
                "--trace-out", str(trace_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "kpj_queries_total" in captured.out  # exposition unchanged
        files = sorted(trace_dir.glob("query-*.trace.json"))
        assert [f.name for f in files] == [
            "query-000.trace.json",
            "query-001.trace.json",
        ]
        for f in files:
            assert validate_chrome_trace(json.loads(f.read_text())) > 0
