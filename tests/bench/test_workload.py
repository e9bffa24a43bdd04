"""Workload spec validation and arrival-schedule determinism.

The spec layer is the pinning mechanism for load-test comparability:
every constraint violation must fail with a clean QueryError naming
the field (no tracebacks from deep inside the replay engine), and the
same spec + seed must expand to a byte-identical arrival schedule.
"""

import json

import pytest

from repro.bench.workload import (
    SPEC_SCHEMA_VERSION,
    Arrival,
    CategorySkew,
    generate_schedule,
    load_spec,
    parse_spec,
    schedule_digest,
)
from repro.exceptions import QueryError

BASE = {
    "name": "unit",
    "dataset": "SJ",
    "categories": ["T1", "T2", "T3"],
    "target_qps": 50.0,
    "queries": 40,
}


def spec_data(**overrides):
    data = dict(BASE)
    data.update(overrides)
    return {k: v for k, v in data.items() if v is not None}


class TestSpecValidation:
    def test_minimal_spec_parses_with_defaults(self):
        spec = parse_spec(spec_data())
        assert spec.name == "unit"
        assert spec.workers == 1
        assert spec.seed == 0
        assert spec.skew.kind == "uniform"
        assert spec.k.kind == "fixed" and spec.k.value == 8
        assert spec.algorithm == "iter-bound-spti"
        assert spec.slo.max_error_rate == 0.0

    def test_as_dict_round_trips_through_parse(self):
        spec = parse_spec(spec_data(
            skew={"kind": "zipf", "s": 1.5},
            k={"kind": "choice", "values": [2, 4], "weights": [3, 1]},
            slo={"p99_ms": 100.0, "regression_factor": 2.0},
        ))
        again = parse_spec(spec.as_dict())
        assert again == spec
        assert spec.as_dict()["schema_version"] == SPEC_SCHEMA_VERSION

    def test_bad_skew_kind_named_in_error(self):
        with pytest.raises(QueryError, match="bad skew kind 'pareto'"):
            parse_spec(spec_data(skew={"kind": "pareto"}))

    def test_zero_qps_rejected(self):
        with pytest.raises(QueryError, match="target_qps must be > 0"):
            parse_spec(spec_data(target_qps=0))

    def test_negative_duration_rejected(self):
        with pytest.raises(QueryError, match="duration_s must be > 0"):
            parse_spec(spec_data(queries=None, duration_s=-1.0))

    def test_exactly_one_budget_required(self):
        with pytest.raises(QueryError, match="exactly one of duration_s"):
            parse_spec(spec_data(queries=None))
        with pytest.raises(QueryError, match="exactly one of duration_s"):
            parse_spec(spec_data(duration_s=2.0))  # both set

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(QueryError, match="unknown workload spec field"):
            parse_spec(spec_data(qps=10))

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(QueryError, match="unknown skew field"):
            parse_spec(spec_data(skew={"kind": "uniform", "s": 1.0}))

    def test_unknown_dataset_lists_choices(self):
        with pytest.raises(QueryError, match="unknown dataset 'XX'"):
            parse_spec(spec_data(dataset="XX"))

    def test_unknown_kernel_and_algorithm(self):
        # There is one search substrate: a kernel field is an unknown key.
        with pytest.raises(QueryError, match="kernel"):
            parse_spec(spec_data(kernel="flat"))
        with pytest.raises(QueryError, match="unknown algorithm"):
            parse_spec(spec_data(algorithm="dfs"))

    def test_duplicate_categories_rejected(self):
        with pytest.raises(QueryError, match="duplicates"):
            parse_spec(spec_data(categories=["T1", "T1"]))

    def test_hot_set_needs_a_cold_category(self):
        with pytest.raises(QueryError, match="skew.hot"):
            parse_spec(spec_data(skew={"kind": "hot-set", "hot": 3}))

    def test_bad_slo_bounds(self):
        with pytest.raises(QueryError, match="slo.max_error_rate"):
            parse_spec(spec_data(slo={"max_error_rate": 1.5}))
        with pytest.raises(QueryError, match="slo.regression_factor"):
            parse_spec(spec_data(slo={"regression_factor": 0.5}))

    def test_unsupported_schema_version(self):
        with pytest.raises(QueryError, match="schema_version"):
            parse_spec(spec_data(schema_version=99))

    def test_negative_seed_and_bad_workers(self):
        with pytest.raises(QueryError, match="seed must be >= 0"):
            parse_spec(spec_data(seed=-1))
        with pytest.raises(QueryError, match="workers must be >= 1"):
            parse_spec(spec_data(workers=0))


class TestLoadSpec:
    def test_json_file(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(spec_data()))
        assert load_spec(str(path)).name == "unit"

    def test_toml_file(self, tmp_path):
        path = tmp_path / "w.toml"
        path.write_text(
            'name = "unit"\n'
            'dataset = "SJ"\n'
            'categories = ["T1", "T2"]\n'
            "target_qps = 25.0\n"
            "queries = 10\n"
            "[skew]\n"
            'kind = "zipf"\n'
            "s = 1.1\n"
        )
        spec = load_spec(str(path))
        assert spec.skew.kind == "zipf"
        assert spec.target_qps == 25.0

    def test_missing_file_is_query_error(self, tmp_path):
        with pytest.raises(QueryError, match="cannot read workload spec"):
            load_spec(str(tmp_path / "absent.json"))

    def test_malformed_json_is_query_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(QueryError, match="malformed workload spec"):
            load_spec(str(path))


class TestSchedule:
    def test_same_seed_same_spec_is_byte_identical(self):
        spec = parse_spec(spec_data(seed=7))
        a = generate_schedule(spec, n_nodes=500)
        b = generate_schedule(spec, n_nodes=500)
        assert a == b
        assert schedule_digest(a) == schedule_digest(b)

    def test_different_seed_differs(self):
        a = generate_schedule(parse_spec(spec_data(seed=1)), n_nodes=500)
        b = generate_schedule(parse_spec(spec_data(seed=2)), n_nodes=500)
        assert schedule_digest(a) != schedule_digest(b)

    def test_query_budget_is_exact(self):
        spec = parse_spec(spec_data(queries=25))
        arrivals = generate_schedule(spec, n_nodes=100)
        assert len(arrivals) == 25
        assert [a.index for a in arrivals] == list(range(25))

    def test_duration_bounds_offsets(self):
        spec = parse_spec(spec_data(queries=None, duration_s=1.0,
                                    target_qps=200.0))
        arrivals = generate_schedule(spec, n_nodes=100)
        assert arrivals, "200 qps for 1s should schedule something"
        assert all(a.offset_s <= 1.0 for a in arrivals)
        assert all(
            a.offset_s < b.offset_s for a, b in zip(arrivals, arrivals[1:])
        )

    def test_sources_and_k_within_declared_ranges(self):
        spec = parse_spec(spec_data(
            queries=200,
            k={"kind": "choice", "values": [2, 4, 8]},
        ))
        arrivals = generate_schedule(spec, n_nodes=50)
        assert all(0 <= a.source < 50 for a in arrivals)
        assert {a.k for a in arrivals} <= {2, 4, 8}
        assert {a.category for a in arrivals} <= {"T1", "T2", "T3"}

    def test_hot_set_mass_lands_on_hot_categories(self):
        spec = parse_spec(spec_data(
            queries=2000,
            skew={"kind": "hot-set", "hot": 1, "mass": 0.9},
        ))
        arrivals = generate_schedule(spec, n_nodes=100)
        hot_share = sum(a.category == "T1" for a in arrivals) / len(arrivals)
        assert hot_share == pytest.approx(0.9, abs=0.05)

    def test_zipf_respects_rank_order(self):
        spec = parse_spec(spec_data(
            queries=2000, skew={"kind": "zipf", "s": 1.2},
        ))
        arrivals = generate_schedule(spec, n_nodes=100)
        counts = [
            sum(a.category == c for a in arrivals) for c in spec.categories
        ]
        assert counts[0] > counts[1] > counts[2]

    def test_zipf_weights_are_rank_powers(self):
        w = CategorySkew(kind="zipf", s=1.0).weights(3)
        assert w == pytest.approx((1.0, 0.5, 1.0 / 3.0))

    def test_digest_is_order_sensitive(self):
        spec = parse_spec(spec_data(queries=5))
        arrivals = generate_schedule(spec, n_nodes=100)
        swapped = list(arrivals)
        swapped[0], swapped[1] = (
            Arrival(0, swapped[1].offset_s, swapped[1].source,
                    swapped[1].category, swapped[1].k),
            Arrival(1, swapped[0].offset_s, swapped[0].source,
                    swapped[0].category, swapped[0].k),
        )
        assert schedule_digest(swapped) != schedule_digest(arrivals)

    def test_bad_n_nodes_rejected(self):
        spec = parse_spec(spec_data())
        with pytest.raises(QueryError, match="n_nodes"):
            generate_schedule(spec, n_nodes=0)
