"""Solver-level observability: per-query registries, elapsed_ms, tiling."""

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.obs.metrics import MetricsRegistry, SEARCH_PHASES
from tests.conftest import KERNELS


@pytest.fixture(scope="module")
def sj():
    return road_network("SJ")


def make_solver(sj, **kwargs):
    kwargs.setdefault("landmarks", 8)
    return KPJSolver(sj.graph, sj.categories, **kwargs)


class TestDisabledPath:
    def test_metrics_default_none(self, sj):
        solver = make_solver(sj)
        assert solver.metrics is None
        result = solver.top_k(0, category="T2", k=3)
        assert result.metrics is None
        assert result.elapsed_ms > 0  # recorded even with metrics off

    def test_results_identical_with_and_without_metrics(self, sj):
        plain = make_solver(sj).top_k(100, category="T2", k=5)
        observed = make_solver(sj, metrics=MetricsRegistry()).top_k(
            100, category="T2", k=5
        )
        assert [p.nodes for p in plain.paths] == [p.nodes for p in observed.paths]
        assert [p.length for p in plain.paths] == [p.length for p in observed.paths]

    def test_to_dict_omits_metrics_when_disabled(self, sj):
        result = make_solver(sj).top_k(0, category="T2", k=2)
        d = result.to_dict()
        assert "metrics" not in d
        assert d["elapsed_ms"] == result.elapsed_ms


class TestEnabledPath:
    def test_snapshot_rides_on_result(self, sj):
        reg = MetricsRegistry()
        solver = make_solver(sj, metrics=reg)
        result = solver.top_k(0, category="T2", k=5)
        snap = result.metrics
        assert snap is not None
        assert snap["counters"]["queries"] == 1
        assert "prepare" in snap["phases"]
        assert "comp_sp" in snap["phases"]
        assert "search_other" in snap["phases"]
        # The latency goes to the solver's registry, not the snapshot.
        assert snap["histograms"] == {}
        assert reg.histograms["query_latency_ms"].total == 1

    def test_solver_registry_accumulates(self, sj):
        reg = MetricsRegistry()
        solver = make_solver(sj, metrics=reg)
        for source in (0, 17, 100):
            solver.top_k(source, category="T2", k=3)
        assert reg.counters["queries"] == 3
        assert reg.histograms["query_latency_ms"].total == 3
        assert reg.phases["prepare"][1] == 3

    def test_landmark_build_recorded_at_construction(self, sj):
        reg = MetricsRegistry()
        make_solver(sj, metrics=reg)
        seconds, calls = reg.phases["landmark_build"]
        assert calls == 1
        assert seconds > 0
        assert reg.gauges["landmark_matrix_bytes"] > 0

    def test_prepared_cache_counters_and_gauges(self, sj):
        reg = MetricsRegistry()
        solver = make_solver(sj, metrics=reg)
        solver.top_k(0, category="T2", k=2)
        solver.top_k(5, category="T2", k=2)
        assert solver.stats.prepared_cache_misses == 1
        assert solver.stats.prepared_cache_hits == 1
        # Counted once, in the solver's stats: the registry keeps only
        # the occupancy gauges.
        assert not [c for c in reg.counters if c.startswith("prepared_cache")]
        assert reg.gauges["prepared_cache_entries"] == 1
        # At the miss the entry holds the padded Eq. (2) buffer and one
        # landmark minimum per landmark.
        n_landmarks = solver.landmark_index.size
        assert reg.gauges["prepared_cache_bytes"] == (sj.graph.n + 2 + n_landmarks) * 8

    def test_prepare_method_records_phase(self, sj):
        reg = MetricsRegistry()
        solver = make_solver(sj, metrics=reg)
        solver.prepare(category="T2")
        assert reg.phases["prepare"][1] == 1
        assert solver.stats.prepared_cache_misses == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_flat_engine_gauges(self, sj, kernel):
        reg = MetricsRegistry()
        solver = make_solver(sj, metrics=reg)
        solver.top_k(0, category="T2", k=5, algorithm="iter-bound-spti")
        assert reg.gauges["iterbound_queue_peak"] >= 1
        assert reg.gauges["spt_heap_peak"] >= 1
        assert not any(name.startswith("kernel_dispatch") for name in reg.counters)


class TestPhaseTiling:
    """Acceptance criterion: phase sum within 10% of elapsed_ms."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "algorithm", ["iter-bound-spti", "iter-bound", "iter-bound-sptp", "da"]
    )
    def test_phases_tile_elapsed(self, sj, kernel, algorithm):
        solver = make_solver(sj, metrics=MetricsRegistry())
        result = solver.top_k(0, category="T2", k=10, algorithm=algorithm)
        snap = MetricsRegistry.from_dict(result.metrics)
        phase_ms = snap.phase_seconds() * 1000.0
        assert phase_ms <= result.elapsed_ms * 1.05
        assert phase_ms >= result.elapsed_ms * 0.90

    def test_search_other_is_residue_of_named_phases(self, sj):
        solver = make_solver(sj, metrics=MetricsRegistry())
        result = solver.top_k(0, category="T2", k=5)
        snap = MetricsRegistry.from_dict(result.metrics)
        named = snap.phase_seconds(SEARCH_PHASES)
        residue = snap.phases["search_other"][0]
        assert residue >= 0
        # prepare + driver phases + residue stay under the wall clock.
        total = snap.phase_seconds()
        assert total * 1000.0 <= result.elapsed_ms * 1.05
        assert named > 0
