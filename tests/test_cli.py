"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def workload(tmp_path, **overrides) -> str:
    """A tiny SJ workload spec file: 3 queries over T2/T1 at k 3."""
    spec = {
        "name": "cli-tiny",
        "dataset": "SJ",
        "categories": ["T2", "T1"],
        "target_qps": 10.0,
        "queries": 3,
        "landmarks": 4,
        "k": {"kind": "fixed", "value": 3},
    }
    spec.update(overrides)
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(spec))
    return str(path)


def scheduled(path):
    """The spec at ``path`` and its scheduled queries, in batch order."""
    from repro.bench.loadtest import spec_queries
    from repro.bench.workload import generate_schedule, load_spec
    from repro.datasets.registry import road_network

    spec = load_spec(path)
    n = road_network(spec.dataset).n
    return spec, spec_queries(spec, generate_schedule(spec, n))


class TestParser:
    def test_query_args(self):
        args = build_parser().parse_args(
            ["query", "--dataset", "SJ", "--source", "3", "--category", "T2"]
        )
        assert args.command == "query"
        assert args.k == 10
        assert args.algorithm == "iter-bound-spti"

    def test_bench_args(self):
        args = build_parser().parse_args(["bench", "--figure", "fig9"])
        assert args.command == "bench"
        assert args.queries == 3

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--dataset", "MARS", "--source", "0", "--category", "X"]
            )

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--figure", "fig99"])


class TestCommands:
    def test_datasets_lists_table(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("SJ", "CAL", "USA"):
            assert name in out

    def test_query_prints_paths(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "SJ",
                "--source",
                "10",
                "--category",
                "T2",
                "--k",
                "3",
                "--landmarks",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-3 paths" in out
        assert "length" in out

    def test_query_bad_source(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "SJ",
                "--source",
                "999999",
                "--category",
                "T2",
            ]
        )
        assert code == 2
        assert "source must be" in capsys.readouterr().err

    def test_bench_prints_figure(self, capsys):
        assert main(["bench", "--figure", "fig12b", "--queries", "1"]) == 0
        out = capsys.readouterr().out
        assert "IterBoundI" in out

    def test_compare_verifies_agreement(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "SJ",
                "--source",
                "50",
                "--category",
                "T2",
                "--k",
                "5",
                "--landmarks",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all algorithms agree" in out
        assert "da-spt" in out

    def test_query_json_output(self, capsys):
        import json

        code = main(
            [
                "query",
                "--dataset",
                "SJ",
                "--source",
                "10",
                "--category",
                "T2",
                "--k",
                "2",
                "--landmarks",
                "4",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "iter-bound-spti"
        assert len(payload["paths"]) == 2
        assert payload["paths"][0]["length"] <= payload["paths"][1]["length"]

    def test_compare_bad_source(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "SJ",
                "--source",
                "-5",
                "--category",
                "T2",
            ]
        )
        assert code == 2


class TestStatsFlag:
    def test_query_with_stats(self, capsys):
        code = main(
            [
                "query", "--dataset", "SJ", "--source", "10",
                "--category", "T2", "--k", "2", "--landmarks", "4",
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(iter-bound-spti):" in out
        assert "stats:" in out
        assert "nodes_settled" in out
        assert "prepared_cache_misses" in out


class TestBatchCommand:
    def test_batch_spec_prints_summary(self, capsys, tmp_path):
        assert main(["batch", "--spec", workload(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 queries" in out
        assert "queries/s" in out

    def test_batch_random_sources_with_workers_and_stats(
        self, capsys, tmp_path
    ):
        path = workload(tmp_path, queries=6, seed=1, workers=2)
        assert main(["batch", "--spec", path, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "prepared_cache_hits" in out

    def test_batch_json_payload(self, capsys, tmp_path):
        path = workload(
            tmp_path, categories=["T2"], queries=2,
            k={"kind": "fixed", "value": 2},
        )
        assert main(["batch", "--spec", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        spec, queries = scheduled(path)
        assert payload["spec"] == spec.as_dict()
        assert payload["spec"]["workers"] == 1
        assert len(payload["results"]) == 2
        assert payload["results"][0]["source"] == queries[0].source
        assert payload["queries_per_s"] > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_json_paths_equal_top_k(self, capsys, tmp_path, workers):
        """Each scheduled query gets the paths KPJSolver.top_k returns."""
        from repro.bench.loadtest import spec_solver

        path = workload(
            tmp_path, queries=4, workers=workers,
            k={"kind": "choice", "values": [2, 5]},
        )
        assert main(["batch", "--spec", path, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        spec, queries = scheduled(path)
        _, solver = spec_solver(spec)
        assert len(rows) == len(queries) == 4
        for row, query in zip(rows, queries):
            expected = solver.top_k(
                query.source, category=query.category, k=query.k,
                algorithm=query.algorithm, alpha=query.alpha,
            )
            assert (row["source"], row["category"], row["k"]) == (
                query.source, query.category, query.k,
            )
            assert row["paths"] == json.loads(
                json.dumps([p.to_dict() for p in expected.paths])
            )

    def test_batch_requires_source_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch"])

class TestMetricsFlags:
    def test_query_metrics_text(self, capsys):
        code = main(
            [
                "query", "--dataset", "SJ", "--source", "10",
                "--category", "T2", "--k", "2", "--landmarks", "4",
                "--metrics", "text",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "landmark_build" in out
        assert "comp_sp" in out
        assert "elapsed" in out

    def test_query_metrics_json_is_one_document(self, capsys):
        import json

        code = main(
            [
                "query", "--dataset", "SJ", "--source", "10",
                "--category", "T2", "--k", "2", "--landmarks", "4",
                "--metrics", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["result"]["paths"]) == 2
        assert payload["result"]["elapsed_ms"] > 0
        assert "prepare" in payload["metrics"]["phases"]
        assert payload["metrics"]["counters"]["queries"] == 1

    def test_batch_metrics_json_has_latency_percentiles(
        self, capsys, tmp_path
    ):
        path = workload(tmp_path, categories=["T2"], queries=4)
        assert main(["batch", "--spec", path, "--metrics", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == scheduled(path)[0].as_dict()
        assert payload["queries"] == 4
        lat = payload["latency_ms"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"]
        assert payload["metrics"]["counters"]["queries"] == 4
        assert "landmark_build" in payload["metrics"]["phases"]

    def test_batch_metrics_text_with_workers(self, capsys, tmp_path):
        path = workload(tmp_path, categories=["T2"], queries=4, workers=2)
        assert main(["batch", "--spec", path, "--metrics", "text"]) == 0
        out = capsys.readouterr().out
        assert "queries/s" in out
        assert "warmup" in out  # the pre-fork phase shows up
        assert "query_latency_ms" in out

    def test_batch_metrics_json_and_prom_report_the_same_counters(
        self, capsys, tmp_path
    ):
        from repro.obs.metrics import parse_prom

        path = workload(tmp_path)
        assert main(["batch", "--spec", path, "--metrics", "json"]) == 0
        counters = json.loads(capsys.readouterr().out)["metrics"]["counters"]
        assert main(["batch", "--spec", path, "--metrics", "prom"]) == 0
        samples = parse_prom(capsys.readouterr().out)
        exposed = {
            name[len("kpj_"):-len("_total")]: value
            for (name, labels), value in samples.items()
            if name.endswith("_total") and not labels
        }
        assert counters["nodes_settled"] > 0  # the batch's SearchStats
        assert exposed == counters

    def test_stats_output_skips_zero_counters(self, capsys):
        code = main(
            [
                "query", "--dataset", "SJ", "--source", "10",
                "--category", "T2", "--k", "2", "--landmarks", "4",
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "prepared_cache_misses" in out
        assert "prepared_cache_hits" not in out  # zero on a cold query


class TestReproErrorMapping:
    """A library error is a bad request: exit 2 and one stderr line."""

    @pytest.mark.parametrize("command", ["batch", "compare", "explain", "query"])
    def test_unknown_category_exits_two(self, capsys, tmp_path, command):
        if command == "batch":
            # The spec names the categories; its dataset is checked first.
            argv = ["batch", "--spec", workload(tmp_path, categories=["T9"])]
            expected = "dataset 'SJ' has no category 'T9'"
        else:
            argv = [
                command, "--dataset", "SJ", "--category", "T9",
                "--landmarks", "4", "--source", "3",
            ]
            expected = "unknown category 'T9'"
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [expected]

    def test_serve_rejects_zero_workers(self, capsys):
        argv = ["serve", "--dataset", "SJ", "--workers", "0", "--landmarks", "4"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["service needs at least one worker, got 0"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--timeout-s", "-1"],
             "default_timeout_s must be a non-negative number, got -1.0"),
            (["--timeout-s", "nan"],
             "default_timeout_s must be a non-negative number, got nan"),
            (["--prewarm", "T9,T1"], "unknown category 'T9'"),
        ],
        ids=["timeout-negative", "timeout-nan", "prewarm-unknown"],
    )
    def test_serve_rejects_bad_flags_before_serving(
        self, capsys, monkeypatch, flags, message
    ):
        import repro.server.http

        served = []
        monkeypatch.setattr(
            repro.server.http, "run_server",
            lambda service, **_: served.append(service),
        )
        argv = ["serve", "--dataset", "SJ", "--landmarks", "4", *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert served == []

    def test_process_exit_has_no_traceback(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "query", "--dataset", "SJ",
             "--source", "3", "--category", "T9", "--landmarks", "4"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["unknown category 'T9'"]

    def test_closed_stdout_exits_quietly(self):
        """A reader that goes away before the output arrives (``kpj
        ... | head``) gets exit code 1 and nothing on stderr."""
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "query", "--dataset", "SJ",
             "--source", "3", "--category", "T2", "--k", "5",
             "--landmarks", "4", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # long before the answer is printed
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 1
        assert err == b""


class TestFuzzCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.command == "fuzz"
        assert args.seed == 0
        assert args.cases == 200
        assert args.shrink is True
        assert args.corpus_dir == "fuzz/corpus"

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--seed", "7", "--cases", "50", "--time-budget", "1.5",
             "--no-shrink"]
        )
        assert args.seed == 7
        assert args.time_budget == 1.5
        assert args.shrink is False

    def test_small_run_is_clean(self, capsys, tmp_path):
        code = main(
            ["fuzz", "--seed", "0", "--cases", "15",
             "--corpus-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all configurations agree" in out
        assert list(tmp_path.iterdir()) == []

    def test_replay_corpus_file(self, capsys):
        import pathlib

        corpus = pathlib.Path(__file__).parent.parent / "fuzz" / "corpus"
        path = str(sorted(corpus.glob("*.json"))[0])
        assert main(["fuzz", "--replay", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_replay_missing_file(self, capsys):
        code = main(["fuzz", "--replay", "/no/such/repro.json"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


def prom(path: str) -> list[str]:
    """``batch --spec PATH --metrics prom``: the spec's exposition."""
    return ["batch", "--spec", path, "--metrics", "prom"]


class TestMetricsCommand:
    """``batch --metrics prom``: one spec's batch as Prometheus text."""

    def test_exposition_parses_cleanly(self, capsys, tmp_path):
        from repro.obs.metrics import parse_prom

        code = main(prom(workload(tmp_path)))
        assert code == 0
        samples = parse_prom(capsys.readouterr().out)
        assert samples[("kpj_queries_total", ())] == 3
        assert ("kpj_phase_seconds_total", (("phase", "comp_sp"),)) in samples
        assert ("kpj_phase_seconds_total", (("phase", "landmark_build"),)) in samples
        # SearchStats counters folded into the same document.
        assert samples[("kpj_nodes_settled_total", ())] > 0

    def test_exposition_with_workers_includes_warmup(self, capsys, tmp_path):
        from repro.obs.metrics import parse_prom

        path = workload(tmp_path, workers=2)
        assert main(prom(path)) == 0
        samples = parse_prom(capsys.readouterr().out)
        assert ("kpj_phase_seconds_total", (("phase", "warmup"),)) in samples
        assert samples[("kpj_queries_total", ())] == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counters_equal_the_summed_search_stats(
        self, capsys, tmp_path, workers
    ):
        """Each SearchStats counter, prepared-cache hits and misses
        included, appears once in the exposition."""
        from repro.bench.loadtest import spec_queries, spec_solver
        from repro.bench.workload import generate_schedule, load_spec
        from repro.obs.metrics import parse_prom

        path = workload(tmp_path, workers=workers)
        assert main(prom(path)) == 0
        samples = parse_prom(capsys.readouterr().out)
        spec = load_spec(path)
        dataset, solver = spec_solver(spec)
        solver.solve_batch(
            spec_queries(spec, generate_schedule(spec, dataset.n)),
            workers=workers,
        )
        total = solver.stats
        assert total.prepared_cache_misses >= 1
        for name, value in total.as_dict().items():
            assert samples.get((f"kpj_{name}_total", ()), 0) == value, name

    def test_missing_workload_file(self, capsys):
        assert main(prom("/no/such/file.json")) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_dataset_rejected(self, capsys, tmp_path):
        path = workload(tmp_path, dataset="NOPE")
        assert main(prom(path)) == 2
        assert "dataset" in capsys.readouterr().err

    def test_empty_queries_rejected(self, capsys, tmp_path):
        path = workload(tmp_path, queries=0)
        assert main(prom(path)) == 2
        assert "queries must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document",
        [
            ["SJ"],
            {"queries": "5"},
            {"workers": "two"},
            {"kernel": "dict"},
        ],
        ids=["top-level-list", "queries-string", "workers-string", "kernel-key"],
    )
    def test_invalid_spec_exits_two_with_one_line(
        self, capsys, tmp_path, document
    ):
        if isinstance(document, dict):
            path = workload(tmp_path, **document)
        else:
            path = tmp_path / "workload.json"
            path.write_text(json.dumps(document))
        assert main(prom(str(path))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("bad workload spec: ")
        assert "Traceback" not in captured.err


class TestObservabilityFlags:
    """--log/--slow-ms/--profile/--memory and query --folded."""

    QUERY = [
        "query", "--dataset", "SJ", "--source", "10", "--category", "T2",
        "--k", "3", "--landmarks", "4",
    ]

    def test_parser_defaults(self):
        for head in (self.QUERY, ["batch", "--spec", "workload.json"]):
            args = build_parser().parse_args(head)
            assert args.log is None and args.slow_ms is None
            assert args.profile is None and args.memory is False

    def test_slow_ms_requires_log(self, capsys):
        assert main(self.QUERY + ["--slow-ms", "5"]) == 2
        assert "--slow-ms requires --log" in capsys.readouterr().err

    def test_query_log_round_trips(self, capsys, tmp_path):
        from repro.obs.log import parse_query_log

        log = tmp_path / "q.jsonl"
        assert main(self.QUERY + ["--log", str(log)]) == 0
        (event,) = parse_query_log(log.read_text())
        assert "kernel" not in event
        assert event["k"] == 3
        assert event["paths"] == 3
        assert "slow" not in event

    def test_slow_dump_written_and_loadable(self, capsys, tmp_path):
        from repro.obs.log import load_slow_query, parse_query_log

        log = tmp_path / "q.jsonl"
        assert main(self.QUERY + ["--log", str(log), "--slow-ms", "0"]) == 0
        (event,) = parse_query_log(log.read_text())
        assert event["slow"] is True
        dump = load_slow_query(event["slow_dump"])
        # --slow-ms implies metrics + tracing for a useful dump.
        assert dump.metrics is not None and dump.trace is not None

    def test_memory_prints_byte_accounting(self, capsys):
        assert main(self.QUERY + ["--memory"]) == 0
        out = capsys.readouterr().out
        assert "memory:" in out
        assert "process_peak_rss_bytes" in out
        assert "mem_search_alloc_bytes" in out

    def test_failed_batch_stops_memory_telemetry(self, capsys, tmp_path):
        import tracemalloc

        tracing = tracemalloc.is_tracing()
        path = workload(tmp_path, categories=["T9"])
        assert main(["batch", "--spec", path, "--memory"]) == 2
        assert tracemalloc.is_tracing() == tracing

    def test_profile_writes_loadable_pstats(self, capsys, tmp_path):
        import pstats

        prof = tmp_path / "q.prof"
        assert main(self.QUERY + ["--profile", str(prof)]) == 0
        assert "profile ->" in capsys.readouterr().err
        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0

    def test_batch_logs_one_event_per_query(self, capsys, tmp_path):
        from repro.obs.log import parse_query_log

        log = tmp_path / "b.jsonl"
        path = workload(tmp_path, categories=["T2"], workers=2)
        code = main(["batch", "--spec", path, "--log", str(log)])
        assert code == 0
        events = parse_query_log(log.read_text())
        assert len(events) == 3
        assert len({e["query_id"] for e in events}) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_slow_dumps_carry_their_trace(
        self, capsys, tmp_path, workers
    ):
        """Slow-logging implies tracing for a batch too, on the
        resident workers as well as in process."""
        from repro.obs.log import load_slow_query, parse_query_log
        from repro.obs.tracing import render_tree

        log = tmp_path / "b.jsonl"
        path = workload(tmp_path, workers=workers)
        argv = ["batch", "--spec", path, "--log", str(log), "--slow-ms", "0"]
        assert main(argv) == 0
        events = parse_query_log(log.read_text())
        assert len(events) == 3
        for event in events:
            dump = load_slow_query(event["slow_dump"])
            assert dump.trace is not None, event["query_id"]
            assert event["query_id"] in render_tree(dump.trace)

    def test_trace_folded_output(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        folded = tmp_path / "t.folded"
        code = main(
            self.QUERY + ["--trace-out", str(out), "--folded", str(folded)]
        )
        assert code == 0
        assert "folded stacks ->" in capsys.readouterr().err
        for line in folded.read_text().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 1


class TestReportCommand:
    def test_renders_committed_trajectory(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Perf trajectory report")
        assert "### Work counters" in out

    def test_out_flag_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "report.md"
        assert main(["report", "--out", str(dest)]) == 0
        assert "report ->" in capsys.readouterr().out
        assert dest.read_text().startswith("# Perf trajectory report")

    def test_missing_trajectory_file(self, capsys):
        assert main(["report", "--trajectory", "/no/such.json"]) == 2
        assert "nothing to report" in capsys.readouterr().err

    def test_non_list_trajectory_rejected(self, capsys, tmp_path):
        bogus = tmp_path / "t.json"
        bogus.write_text('{"not": "a list"}')
        assert main(["report", "--trajectory", str(bogus)]) == 2
        assert "not a list" in capsys.readouterr().err

    def test_missing_loadtest_trajectory(self, capsys):
        assert main(["report", "--loadtest", "/no/such.json"]) == 2
        err = capsys.readouterr().err
        assert "nothing to report" in err and "loadtest" in err

    def test_empty_loadtest_trajectory_is_clean(self, capsys, tmp_path):
        blank = tmp_path / "lt.json"
        blank.write_text("\n")
        assert main(["report", "--loadtest", str(blank)]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_empty_trajectory_file_is_clean(self, capsys, tmp_path):
        blank = tmp_path / "t.json"
        blank.write_text("")
        assert main(["report", "--trajectory", str(blank)]) == 0
        assert "is empty" in capsys.readouterr().out


def _write_tiny_spec(tmp_path, **overrides):
    import json

    data = {
        "name": "cli-tiny",
        "dataset": "SJ",
        "categories": ["T1", "T2"],
        "target_qps": 400.0,
        "queries": 8,
        "workers": 1,
        "seed": 5,
        "landmarks": 2,
        "k": {"kind": "fixed", "value": 2},
        "slo": {"p99_ms": 30000.0, "min_qps": 1.0},
    }
    data.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return path


class TestLoadtestCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["loadtest", "--spec", "w.json"])
        assert args.command == "loadtest"
        assert args.out is None
        assert args.baseline is None
        assert args.gate is True
        assert args.json is False

    def test_replay_writes_entry_and_passes_gate(self, capsys, tmp_path):
        import json

        spec = _write_tiny_spec(tmp_path)
        out = tmp_path / "BENCH_loadtest.json"
        assert main(["loadtest", "--spec", str(spec), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "slo gate OK" in captured.out
        assert "queue wait" in captured.out
        entries = json.loads(out.read_text())
        assert len(entries) == 1
        assert entries[0]["completed"] == 8

    def test_second_run_gates_against_recorded_baseline(self, capsys, tmp_path):
        spec = _write_tiny_spec(
            tmp_path, slo={"p99_ms": 30000.0, "regression_factor": 100.0}
        )
        out = tmp_path / "BENCH_loadtest.json"
        assert main(["loadtest", "--spec", str(spec), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["loadtest", "--spec", str(spec), "--out", str(out)]) == 0
        assert "slo gate OK vs baseline" in capsys.readouterr().out

    def test_violated_p99_bound_fails_nonzero(self, capsys, tmp_path):
        # No real replay finishes under a microsecond: the declared
        # p99 bound is deliberately impossible, so the gate must fail.
        spec = _write_tiny_spec(tmp_path, slo={"p99_ms": 0.001})
        assert main(["loadtest", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert "SLO GATE FAILED" in err
        assert "p99" in err

    def test_no_gate_flag_skips_slo(self, capsys, tmp_path):
        spec = _write_tiny_spec(tmp_path, slo={"p99_ms": 0.001})
        assert main(["loadtest", "--spec", str(spec), "--no-gate"]) == 0
        assert "SLO GATE FAILED" not in capsys.readouterr().err

    def test_json_output_is_the_entry(self, capsys, tmp_path):
        import json

        spec = _write_tiny_spec(tmp_path)
        assert main(["loadtest", "--spec", str(spec), "--json"]) == 0
        entry = json.loads(capsys.readouterr().out.rsplit("slo gate OK")[0])
        assert entry["queries"] == 8
        assert entry["latency_ms"]["p99"] is not None

    def test_bad_spec_exits_two(self, capsys, tmp_path):
        spec = _write_tiny_spec(tmp_path, target_qps=0)
        assert main(["loadtest", "--spec", str(spec)]) == 2
        assert "bad workload spec" in capsys.readouterr().err

    def test_malformed_trajectory_exits_two(self, capsys, tmp_path):
        spec = _write_tiny_spec(tmp_path)
        out = tmp_path / "BENCH_loadtest.json"
        out.write_text("{not json")
        assert main(["loadtest", "--spec", str(spec), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("malformed trajectory")

    def test_report_renders_loadtest_trajectory(self, capsys, tmp_path):
        spec = _write_tiny_spec(tmp_path)
        out = tmp_path / "BENCH_loadtest.json"
        assert main(["loadtest", "--spec", str(spec), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--loadtest", str(out)]) == 0
        doc = capsys.readouterr().out
        assert doc.startswith("# Load-test trajectory report")
        assert "cli-tiny" in doc
        assert "Queue wait vs service time" in doc
