"""Unit tests for the benchmark record path (stamp, load, append,
latest) and the trajectory/work-counter renderer (kpj report)."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import trajectory
from repro.bench.trajectory import (
    WORK_PHASE_FIELDS,
    accumulate_work,
    append,
    host_note,
    latest,
    load,
    render_loadtest_report,
    render_trajectory_report,
    render_work_deltas,
    stamp,
    work_snapshot,
)
from repro.bench.workload import load_spec, parse_spec
from repro.core.stats import WORK_PARITY_FIELDS, SearchStats
from repro.exceptions import QueryError

ROOT = Path(__file__).resolve().parents[2]
TRAJECTORY = ROOT / "benchmarks" / "results" / "BENCH_trajectory.json"
LOADTEST = ROOT / "benchmarks" / "results" / "BENCH_loadtest.json"
SMOKE_SPEC = ROOT / "benchmarks" / "specs" / "loadtest_smoke.json"


def entry(work=None, protocol=None, **overrides) -> dict:
    base = {
        "sha": "0" * 40,
        "date": "2026-01-01T00:00:00Z",
        "protocol": protocol or {"kernel": "dict", "version": 1},
        "phases": {
            "total": {"p50_ms": 4.0, "p95_ms": 8.0},
            "test_lb": {"p50_ms": 1.0, "p95_ms": 2.0},
        },
        "paths_checksum": "abc",
    }
    if work is not None:
        base["work"] = work
    base.update(overrides)
    return base


class TestTaxonomy:
    def test_covers_every_parity_counter(self):
        # §3g contract: every pinned work counter has a home
        # phase in the trajectory's work block.
        taxonomy = {f for fields in WORK_PHASE_FIELDS.values() for f in fields}
        assert set(WORK_PARITY_FIELDS) <= taxonomy

    def test_no_counter_in_two_phases(self):
        fields = [f for fs in WORK_PHASE_FIELDS.values() for f in fs]
        assert len(fields) == len(set(fields))

    def test_snapshot_keeps_zeros_and_groups_by_phase(self):
        snap = work_snapshot(SearchStats(nodes_settled=5))
        assert snap["test_lb"]["nodes_settled"] == 5
        assert snap["test_lb"]["heap_pushes"] == 0  # zeros kept
        assert set(snap) == set(WORK_PHASE_FIELDS)

    def test_accumulate_sums_across_queries(self):
        total: dict = {}
        accumulate_work(total, SearchStats(nodes_settled=5, heap_pushes=2))
        accumulate_work(total, SearchStats(nodes_settled=3))
        assert total["test_lb"]["nodes_settled"] == 8
        assert total["test_lb"]["heap_pushes"] == 2


class TestWorkDeltas:
    def work(self, **counters) -> dict:
        return {"test_lb": {"nodes_settled": 100, **counters}}

    def test_against_matching_baseline(self):
        doc = render_work_deltas(
            entry(work=self.work(nodes_settled=110)),
            entry(work=self.work(nodes_settled=100)),
        )
        assert "| test_lb | nodes_settled | 110 | +10 (+10.0%) |" in doc
        assert "`dict` kernel" in doc

    def test_unchanged_and_new_markers(self):
        now = entry(work={"test_lb": {"nodes_settled": 7, "heap_pops": 3}})
        base = entry(work={"test_lb": {"nodes_settled": 7}})
        doc = render_work_deltas(now, base)
        assert "| test_lb | nodes_settled | 7 | = |" in doc
        assert "| test_lb | heap_pops | 3 | (new) |" in doc

    def test_pre_work_baseline_renders_as_new(self):
        doc = render_work_deltas(entry(work=self.work()), entry())
        assert "(new)" in doc and "nodes_settled" in doc

    def test_entry_without_work_block(self):
        doc = render_work_deltas(entry(), None)
        assert "no work block" in doc


class TestTrajectoryReport:
    def test_empty(self):
        assert "(no entries)" in render_trajectory_report([])

    def test_groups_by_protocol_and_marks_new(self):
        dict_proto = {"kernel": "dict", "version": 1}
        flat_proto = {"kernel": "flat", "version": 1}
        doc = render_trajectory_report(
            [
                entry(protocol=dict_proto),
                entry(protocol=dict_proto, work={"test_lb": {"heap_pops": 1}}),
                entry(protocol=flat_proto),
            ]
        )
        assert doc.count("### Phases (latest entry)") == 2
        assert "`dict` kernel" in doc and "`flat` kernel" in doc
        # dict group has a previous entry without p-deltas? both share
        # the same phases, so the ratio column is populated.
        assert "1.00x" in doc
        assert "| test_lb | heap_pops | 1 | (new) |" in doc

    def test_committed_trajectory_renders(self):
        # The exact document `kpj report` must produce in CI: committed
        # entries predate the work-attribution layer, so the renderer
        # has to tolerate missing work blocks.
        trajectory = json.loads(TRAJECTORY.read_text())
        doc = render_trajectory_report(trajectory)
        assert doc.startswith("# Perf trajectory report")
        for needle in ("`dict` kernel", "total", "### Work counters"):
            assert needle in doc


def tiny_spec(**overrides):
    data = {
        "name": "tiny",
        "dataset": "SJ",
        "categories": ["T1", "T2"],
        "target_qps": 400.0,
        "queries": 12,
        "seed": 3,
    }
    data.update(overrides)
    return parse_spec(data)


def lt_entry(spec, *, p99, target="service") -> dict:
    return {
        "spec": spec.as_dict(),
        "target": target,
        "latency_ms": {"p99": p99},
    }


class TestTrajectoryIO:
    def test_missing_file_is_empty(self, tmp_path):
        assert load(str(tmp_path / "absent.json")) == []

    def test_blank_file_is_empty(self, tmp_path):
        path = tmp_path / "blank.json"
        path.write_text("  \n")
        assert load(str(path)) == []

    def test_malformed_and_non_list_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        with pytest.raises(QueryError, match="malformed"):
            load(str(bad))
        bad.write_text('{"not": "a list"}')
        with pytest.raises(QueryError, match="not a list"):
            load(str(bad))

    def test_latest_picks_latest_exact_match(self, tmp_path):
        spec = tiny_spec()
        other = tiny_spec(seed=42)
        entries = [
            lt_entry(spec, p99=10.0),
            lt_entry(other, p99=20.0),
            lt_entry(spec, p99=30.0),
        ]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(entries))
        pool = load(str(path))
        base = latest(pool, spec=spec.as_dict(), target="service")
        assert base is not None and base["latency_ms"]["p99"] == 30.0
        assert latest(pool, spec=tiny_spec(seed=7).as_dict()) is None

    def test_append_writes_an_indent_two_list(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        append(path, {"a": 1})
        assert append(path, {"a": 2}) == [{"a": 1}, {"a": 2}]
        assert path.read_text() == json.dumps(
            [{"a": 1}, {"a": 2}], indent=2
        ) + "\n"


def _regression_module():
    spec = importlib.util.spec_from_file_location(
        "regression", ROOT / "benchmarks" / "regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("regression", module)
    spec.loader.exec_module(module)
    return module


class TestLatest:
    def test_lookup_is_target_scoped(self):
        spec = tiny_spec()
        service_base = lt_entry(spec, p99=20.0)
        pool_base = lt_entry(spec, p99=10.0, target="pool")
        legacy = lt_entry(spec, p99=5.0)
        del legacy["target"]  # recorded before targets existed
        found = latest(
            [service_base, pool_base, legacy],
            spec=spec.as_dict(), target="service",
        )
        assert found is not None and found["latency_ms"]["p99"] == 20.0
        assert latest(
            [pool_base, legacy], spec=spec.as_dict(), target="service"
        ) is None

    def test_matches_exact_protocol(self):
        protocol = _regression_module().PROTOCOL
        entries = [
            entry(protocol=dict(protocol)),
            entry(protocol={**protocol, "kernel": "dict"}),
        ]
        hit = latest(entries, protocol=protocol)
        assert hit is entries[0]
        assert latest(entries, protocol={**protocol, "version": 2}) is None

    def test_committed_files_keep_their_baselines(self):
        """The perf gate's baseline is the 287fe44 ``flat`` entry and the
        smoke spec's is the 8be81f2 service entry, as before the lookups
        moved here."""
        protocol = _regression_module().PROTOCOL
        perf = latest(load(TRAJECTORY), protocol=protocol)
        assert perf["sha"].startswith("287fe44")
        assert perf["protocol"]["kernel"] == "flat"
        smoke = latest(
            load(LOADTEST),
            spec=load_spec(str(SMOKE_SPEC)).as_dict(),
            target="service",
        )
        assert smoke["sha"].startswith("8be81f2")


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout


class TestStamp:
    def test_fields(self):
        stamped = stamp()
        assert set(stamped) == {"sha", "dirty", "date", "python", "host"}
        assert set(stamped["host"]) == {"cpus", "cpu", "scipy"}
        assert stamped["host"]["cpus"] >= 1
        assert stamped["date"].endswith("Z")

    def test_dirty_ignores_benchmark_results(self, tmp_path, monkeypatch):
        repo = tmp_path / "checkout"
        results = repo / "benchmarks" / "results"
        results.mkdir(parents=True)
        (repo / "code.py").write_text("x = 1\n")
        (results / "BENCH_x.json").write_text("[]\n")
        _git(repo, "init", "-q")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-qm", "init")
        monkeypatch.setattr(trajectory, "_GIT_DIR", repo)

        clean = stamp()
        assert clean["sha"] == _git(repo, "rev-parse", "HEAD").strip()
        assert clean["dirty"] is False
        (results / "BENCH_x.json").write_text("[{}]\n")
        (results / "BENCH_new.json").write_text("[]\n")
        assert stamp()["dirty"] is False
        (repo / "code.py").write_text("x = 2\n")
        assert stamp()["dirty"] is True

    def test_outside_a_checkout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trajectory, "_GIT_DIR", tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        stamped = stamp()
        assert stamped["sha"] == "unknown"
        assert stamped["dirty"] is None


class TestHostAndDirtyMarks:
    HOST = {"cpus": 2, "cpu": "Example CPU", "scipy": "1.0"}

    def test_host_note_only_when_hosts_differ(self):
        assert host_note({"host": self.HOST}, {"host": dict(self.HOST)}) is None
        note = host_note({"host": self.HOST}, {"sha": "old"})
        assert note.startswith("baseline host: unknown")
        assert "2 CPUs, Example CPU, scipy 1.0" in note

    def test_reports_mark_dirty_entries(self):
        doc = render_trajectory_report([entry(sha="a" * 40, dirty=True)])
        assert f"| {'a' * 12} (dirty) |" in doc
        spec = tiny_spec().as_dict()
        doc = render_loadtest_report(
            [{"spec": spec, "sha": "b" * 40, "dirty": False},
             {"spec": spec, "sha": "c" * 40, "dirty": True}]
        )
        assert f"| {'b' * 12} |" in doc
        assert f"| {'c' * 12} (dirty) |" in doc
