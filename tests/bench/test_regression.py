"""Unit tests for the perf-regression gate logic (benchmarks/regression.py).

The gate's measurement path is exercised by CI's perf-gate job; here
we test the *decision* logic — threshold, noise floor, protocol and
checksum handling — against synthetic entries, without timing anything.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.bench.trajectory import latest, load

_SPEC = importlib.util.spec_from_file_location(
    "regression",
    Path(__file__).resolve().parents[2] / "benchmarks" / "regression.py",
)
regression = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("regression", regression)
_SPEC.loader.exec_module(regression)


def entry(phases: dict[str, float], checksum: str = "abc") -> dict:
    return {
        "sha": "0" * 40,
        "date": "2026-01-01T00:00:00Z",
        "protocol": dict(regression.PROTOCOL),
        "phases": {
            name: {"p50_ms": p50, "p95_ms": p50 * 2}
            for name, p50 in phases.items()
        },
        "paths_checksum": checksum,
    }


class TestGateLogic:
    def test_identical_entries_pass(self):
        base = entry({"test_lb": 1.0, "total": 4.0})
        assert regression.check(entry({"test_lb": 1.0, "total": 4.0}), base) == []

    def test_regression_beyond_threshold_fails(self):
        base = entry({"test_lb": 1.0, "total": 4.0})
        now = entry({"test_lb": 1.3, "total": 4.0})  # 1.3x > 1.25x
        failures = regression.check(now, base)
        assert len(failures) == 1
        assert "test_lb" in failures[0] and "1.30x" in failures[0]

    def test_improvement_and_small_drift_pass(self):
        base = entry({"test_lb": 1.0, "total": 4.0})
        now = entry({"test_lb": 0.5, "total": 4.9})  # 1.225x < 1.25x
        assert regression.check(now, base) == []

    def test_noise_floor_exempts_cheap_phases(self):
        base = entry({"prepare": 0.05, "total": 4.0})
        now = entry({"prepare": 0.4, "total": 4.0})  # 8x, but < MIN_PHASE_MS
        assert regression.check(now, base) == []
        assert regression.MIN_PHASE_MS == 0.5

    def test_missing_phase_fails(self):
        base = entry({"test_lb": 1.0, "total": 4.0})
        now = entry({"total": 4.0})
        failures = regression.check(now, base)
        assert any("disappeared" in f for f in failures)

    def test_checksum_mismatch_fails_even_when_fast(self):
        base = entry({"total": 4.0}, checksum="aaa")
        now = entry({"total": 1.0}, checksum="bbb")
        failures = regression.check(now, base)
        assert any("checksum" in f for f in failures)

    def test_protocol_change_demands_refresh(self):
        base = entry({"total": 4.0})
        base["protocol"] = {**base["protocol"], "k": 999}
        failures = regression.check(entry({"total": 4.0}), base)
        assert failures == [
            "workload protocol changed — refresh the trajectory with --update"
        ]

    def test_threshold_is_twenty_five_percent(self):
        assert regression.THRESHOLD == pytest.approx(1.25)


class TestTrajectoryArtifact:
    def test_committed_trajectory_is_valid(self):
        """The repo ships a baseline entry for the gated workload."""
        trajectory = load(regression.TRAJECTORY)
        assert trajectory, "benchmarks/results/BENCH_trajectory.json missing"
        last = latest(trajectory, protocol=regression.PROTOCOL)
        assert last is not None, "no baseline for the pinned protocol"
        assert len(last["paths_checksum"]) == 64  # sha256 hex
        assert "total" in last["phases"]
        for numbers in last["phases"].values():
            assert numbers["p50_ms"] > 0
            assert numbers["p95_ms"] >= numbers["p50_ms"]

    def test_new_entry_is_stamped(self, monkeypatch):
        monkeypatch.setattr(
            regression, "run_workload", lambda spec: ({}, "abc", [], {})
        )
        made, _ = regression.make_entry()
        for field in ("sha", "dirty", "date", "python", "host"):
            assert field in made, field
        assert made["protocol"] == regression.PROTOCOL
