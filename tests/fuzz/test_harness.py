"""Harness behavior: clean runs, planted mutations, repro files."""

import json

import pytest

from repro.exceptions import QueryError
from repro.fuzz import MUTATIONS, check_case, generate_case, replay_file, run_fuzz
from repro.fuzz.harness import ORACLE_MAX_NODES, self_check


class TestCleanRuns:
    def test_small_campaign_is_clean(self):
        report = run_fuzz(seed=0, cases=30, shrink=False)
        assert report.ok, report.summary()
        assert report.cases_run == 30
        assert report.oracle_cases > 0
        assert report.invariant_cases > 0

    def test_determinism(self):
        a = run_fuzz(seed=5, cases=10)
        b = run_fuzz(seed=5, cases=10)
        assert a.ok and b.ok
        assert a.oracle_cases == b.oracle_cases

    def test_time_budget_stops_early(self):
        report = run_fuzz(seed=0, cases=10_000, time_budget=0.3)
        assert report.cases_run < 10_000
        assert report.ok, report.summary()

    def test_mode_dispatch_by_size(self):
        small = generate_case(0)
        assert small.n <= ORACLE_MAX_NODES
        assert check_case(small)[0] == "oracle"
        large = generate_case(0, min_nodes=20, max_nodes=25)
        assert check_case(large)[0] == "invariant"

    def test_unknown_mutation_rejected(self):
        with pytest.raises(QueryError, match="unknown mutation"):
            run_fuzz(cases=1, mutation="optimism")


class TestPlantedMutations:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_detected(self, name):
        report = run_fuzz(
            seed=0, cases=30, shrink=False,
            mutation=name, max_failures=1,
        )
        assert not report.ok, f"harness is blind to planted {name!r}"

    def test_self_check_all_green(self):
        outcomes = self_check(seed=0, cases_per_mutation=20)
        assert all(outcomes.values()), outcomes
        assert outcomes["clean"] is True
        assert set(MUTATIONS) <= set(outcomes)


class TestReproFiles:
    def test_failure_writes_shrunk_replayable_repro(self, tmp_path):
        report = run_fuzz(
            seed=0, cases=30, shrink=True,
            corpus_dir=str(tmp_path), mutation="drop-deviation",
            max_failures=1,
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.repro_path is not None
        doc = json.loads(open(failure.repro_path).read())
        assert doc["version"] == 1
        assert doc["failures"]
        # Shrunk case is no bigger than the original.
        assert failure.case.n <= failure.original.n
        assert len(failure.case.edges) <= len(failure.original.edges)
        # The repro file replays deterministically: clean against the
        # honest code (the bug was planted, not real) but structurally
        # loadable and checkable.
        assert replay_file(failure.repro_path) == []

    def test_replay_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(QueryError, match="cannot read repro file"):
            replay_file(str(tmp_path / "nope.json"))

    def test_clean_run_writes_nothing(self, tmp_path):
        report = run_fuzz(
            seed=0, cases=10, corpus_dir=str(tmp_path)
        )
        assert report.ok
        assert list(tmp_path.iterdir()) == []


class TestReportRendering:
    def test_summary_mentions_failures(self):
        report = run_fuzz(
            seed=0, cases=30, shrink=False,
            mutation="length-drift", max_failures=1,
        )
        text = report.summary()
        assert "FAILURE" in text
        assert "oracle" in text

    def test_clean_summary(self):
        report = run_fuzz(seed=2, cases=5)
        assert "all configurations agree" in report.summary()
