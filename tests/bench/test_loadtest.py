"""Open-loop replay entries and the SLO gate.

Replays here use tiny query budgets on the SJ dataset so the suite
stays fast; the gate tests run against synthetic entries so every
failure branch is exercised without timing flakiness.
"""

import pytest

from repro.bench.loadtest import (
    LOADTEST_SCHEMA_VERSION,
    evaluate_gate,
    render_entry_summary,
    replay_workload,
)
from repro.bench.workload import parse_spec
from repro.exceptions import QueryError


def tiny_spec(**overrides):
    data = {
        "name": "tiny",
        "dataset": "SJ",
        "categories": ["T1", "T2"],
        "target_qps": 400.0,
        "queries": 12,
        "workers": 1,
        "seed": 3,
        "landmarks": 2,
        "k": {"kind": "fixed", "value": 2},
    }
    data.update(overrides)
    return parse_spec(data)


@pytest.fixture(scope="module")
def tiny_entry():
    return replay_workload(tiny_spec())


class TestReplayEntry:
    def test_entry_structure(self, tiny_entry):
        e = tiny_entry
        assert e["schema_version"] == LOADTEST_SCHEMA_VERSION
        assert e["queries"] == 12
        assert e["completed"] == 12
        assert e["errors"]["count"] == 0
        assert e["spec"] == tiny_spec().as_dict()
        assert e["target"] == "service"
        assert len(e["schedule_sha"]) == 64
        assert e["achieved_qps"] > 0
        assert 0.0 <= e["occupancy"]
        for block in ("latency_ms", "queue_wait_ms", "service_ms"):
            assert e[block]["count"] == 12
            for q in ("p50", "p95", "p99", "p999"):
                assert e[block][q] is not None
        # Latency decomposes into queue wait + service: the combined
        # tail can never undercut the service tail.
        assert e["latency_ms"]["p99"] >= e["service_ms"]["p99"]

    def test_entry_is_stamped(self, tiny_entry):
        assert len(tiny_entry["sha"]) == 40
        assert isinstance(tiny_entry["dirty"], bool)
        assert tiny_entry["date"].endswith("Z")
        assert tiny_entry["python"].count(".") == 2
        assert set(tiny_entry["host"]) == {"cpus", "cpu", "scipy"}

    def test_work_counters_recorded(self, tiny_entry):
        assert tiny_entry["work"], "replay must accumulate SearchStats work"
        assert any(v for v in tiny_entry["work"].values())

    def test_phases_include_warmup(self, tiny_entry):
        assert "warmup" in tiny_entry["phases"]

    def test_schedule_sha_is_deterministic(self, tiny_entry):
        again = replay_workload(tiny_spec())
        assert again["schedule_sha"] == tiny_entry["schedule_sha"]

    def test_unknown_category_is_query_error(self):
        with pytest.raises(QueryError, match="no category"):
            replay_workload(tiny_spec(categories=["T1", "NOPE"]))

    def test_pooled_replay_smoke(self):
        entry = replay_workload(tiny_spec(workers=2, queries=6))
        assert entry["completed"] == 6
        assert entry["errors"]["count"] == 0
        assert entry["queue_wait_ms"]["count"] == 6

    def test_render_summary_mentions_components(self, tiny_entry):
        text = render_entry_summary(tiny_entry)
        assert "queue wait" in text
        assert "service" in text
        assert "achieved" in text


def synthetic_entry(spec, *, p99=50.0, qps=100.0, errors=0, queries=10):
    block = {"count": queries - errors, "mean": p99 / 2,
             "p50": p99 / 4, "p95": p99 / 2, "p99": p99, "p999": p99 * 1.5}
    return {
        "schema_version": LOADTEST_SCHEMA_VERSION,
        "spec": spec.as_dict(),
        "queries": queries,
        "completed": queries - errors,
        "errors": {"count": errors, "samples": []},
        "achieved_qps": qps,
        "latency_ms": dict(block),
        "queue_wait_ms": dict(block),
        "service_ms": dict(block),
        "date": "2026-01-01T00:00:00Z",
        "sha": "feedface",
        "target": "service",
    }


class TestGate:
    def test_clean_entry_passes(self):
        spec = tiny_spec(slo={"p99_ms": 100.0, "min_qps": 10.0})
        assert evaluate_gate(synthetic_entry(spec), spec) == []

    def test_p99_bound_violation(self):
        spec = tiny_spec(slo={"p99_ms": 10.0})
        failures = evaluate_gate(synthetic_entry(spec, p99=50.0), spec)
        assert len(failures) == 1
        assert "p99" in failures[0] and "SLO" in failures[0]

    def test_throughput_floor_violation(self):
        spec = tiny_spec(slo={"min_qps": 500.0})
        failures = evaluate_gate(synthetic_entry(spec, qps=100.0), spec)
        assert any("below the" in f for f in failures)

    def test_error_budget_violation(self):
        spec = tiny_spec(slo={"max_error_rate": 0.0})
        failures = evaluate_gate(synthetic_entry(spec, errors=2), spec)
        assert any("error rate" in f for f in failures)

    def test_no_completed_queries_fails_p99_slo(self):
        spec = tiny_spec(slo={"p99_ms": 100.0})
        entry = synthetic_entry(spec)
        entry["latency_ms"]["p99"] = None
        assert any("no completed" in f for f in evaluate_gate(entry, spec))

    def test_regression_vs_baseline(self):
        spec = tiny_spec(slo={"regression_factor": 2.0})
        baseline = synthetic_entry(spec, p99=10.0, qps=100.0)
        # 5x slower p99 and 4x lower throughput: both bounds trip.
        entry = synthetic_entry(spec, p99=50.0, qps=25.0)
        failures = evaluate_gate(entry, spec, baseline)
        assert any("regressed" in f for f in failures)
        assert any("fell" in f for f in failures)

    def test_within_regression_factor_passes(self):
        spec = tiny_spec(slo={"regression_factor": 2.0})
        baseline = synthetic_entry(spec, p99=10.0, qps=100.0)
        entry = synthetic_entry(spec, p99=15.0, qps=80.0)
        assert evaluate_gate(entry, spec, baseline) == []

    def test_baseline_spec_mismatch_flagged(self):
        spec = tiny_spec(slo={"regression_factor": 2.0})
        other = tiny_spec(seed=99, slo={"regression_factor": 2.0})
        failures = evaluate_gate(
            synthetic_entry(spec), spec, synthetic_entry(other)
        )
        assert any("different spec" in f for f in failures)


class TestServiceTarget:
    """Replays run on the resident-worker service; entries of the
    deleted fork-per-batch pool never serve as a baseline (the lookup
    itself is tested in test_trajectory.py)."""

    def test_warmup_paid_once_at_startup(self, tiny_entry):
        # The acceptance criterion for the service tier: per-query
        # service time excludes warm-up, which shows up as exactly one
        # call of the one-time warmup phase.
        assert tiny_entry["phases"]["warmup"]["calls"] == 1
        assert tiny_entry["work"]

    def test_per_query_phases_counted_once(self, tiny_entry):
        assert tiny_entry["phases"]["comp_sp"]["calls"] == tiny_entry["completed"]

    def test_gate_flags_cross_target_baseline(self):
        spec = tiny_spec(slo={"regression_factor": 2.0})
        entry = synthetic_entry(spec)
        baseline = dict(synthetic_entry(spec), target="pool")
        failures = evaluate_gate(entry, spec, baseline)
        assert any("different target" in f for f in failures)

    def test_summary_names_the_target(self, tiny_entry):
        assert "target service" in render_entry_summary(tiny_entry)
