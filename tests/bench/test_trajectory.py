"""Unit tests for the trajectory/work-counter renderer (kpj report)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.trajectory import (
    WORK_PHASE_FIELDS,
    accumulate_work,
    render_trajectory_report,
    render_work_deltas,
    work_snapshot,
)
from repro.core.stats import WORK_PARITY_FIELDS, SearchStats

TRAJECTORY = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "results"
    / "BENCH_trajectory.json"
)


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
