"""Memory telemetry: tracemalloc phases, RSS gauge, pool byte accounting."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.obs.memory import (
    MemoryTelemetry,
    peak_rss_bytes,
    scratch_pool_bytes,
)
from repro import native
from repro.obs.metrics import MetricsRegistry
from repro.pathing.flat import FlatScratch


@pytest.fixture(scope="module")
def sj():
    return road_network("SJ")


@pytest.fixture(autouse=True)
def no_ambient_tracing():
    """These tests own tracemalloc; fail fast if something leaks it."""
    assert not tracemalloc.is_tracing()
    yield
    assert not tracemalloc.is_tracing()


class TestPeakRss:
    def test_positive_and_plausible(self):
        rss = peak_rss_bytes()
        assert rss > 1024 * 1024  # a Python process is at least 1 MiB
        assert rss < 1 << 44

    def test_monotone(self):
        assert peak_rss_bytes() <= peak_rss_bytes()


class TestScratchBytes:
    def test_flat_scratch_nbytes_nominal(self):
        assert FlatScratch(100).nbytes() == 100 * 3 * 8

    @pytest.fixture
    def empty_pools(self, sj):
        """SJ's flat and compiled-tier scratch pools, emptied for the
        test and restored after it."""
        pools = sj.graph.search_pools
        saved = {kind: pools.setdefault(kind, [])[:] for kind in ("scratch", "native")}
        for kind in saved:
            pools[kind].clear()
        yield pools
        for kind, items in saved.items():
            pools[kind][:] = items

    def test_pool_bytes_track_checkin(self, sj, empty_pools):
        from repro.pathing.flat import acquire_scratch, release_scratch

        assert scratch_pool_bytes(sj.graph)["flat_scratch_pool_bytes"] == 0
        scratch = acquire_scratch(sj.graph)
        release_scratch(scratch)
        assert (
            scratch_pool_bytes(sj.graph)["flat_scratch_pool_bytes"]
            == (sj.n + 2) * 3 * 8
        )

    @pytest.mark.skipif(not native.HAVE_NATIVE, reason="compiled tier not built")
    def test_pool_bytes_count_the_compiled_tier_state(self, sj, empty_pools):
        # SPT_I's state on the compiled tier is the largest pooled
        # buffer: seven n + 2 vectors and a heap of 1 + m + 2n
        # (key, node) entries.  A query leaves it in the pool.
        from repro.core.flat_engine import CompiledIncrementalSPT
        from repro.graph.virtual import build_query_graph
        from repro.landmarks.index import ZERO_BOUNDS

        qg = build_query_graph(sj.graph, (0,), (1, 2))
        CompiledIncrementalSPT(qg, ZERO_BOUNDS).close()
        (scratch,) = empty_pools["native"]
        held = 7 * (sj.n + 2) * 8 + (1 + sj.graph.m + 2 * sj.n) * 16
        assert scratch.nbytes() == held
        assert scratch_pool_bytes(sj.graph) == {"flat_scratch_pool_bytes": held}
        empty_pools["native"].clear()
        reg = MetricsRegistry()
        solver = KPJSolver(
            sj.graph, sj.categories, landmarks=4, metrics=reg,
            memory=MemoryTelemetry(),
        )
        solver.top_k(3, category="T2", k=3, algorithm="iter-bound-spti")
        assert reg.gauges["flat_scratch_pool_bytes"] >= held

    def test_overlay_reports_its_base_graph_pool(self, sj):
        # Searches on a G_Q overlay draw from the base graph's pool, so
        # the overlay reports the same bytes; a graph that never ran a
        # search reports zero.
        from repro.graph.digraph import DiGraph
        from repro.graph.virtual import build_query_graph

        qg = build_query_graph(sj.graph, (0,), (1, 2))
        assert scratch_pool_bytes(qg.graph) == scratch_pool_bytes(sj.graph)
        assert scratch_pool_bytes(qg.reversed_graph()) == scratch_pool_bytes(sj.graph)
        cold = DiGraph.from_edges(3, [(0, 1, 1.0)])
        assert scratch_pool_bytes(cold) == {"flat_scratch_pool_bytes": 0}


class TestMemoryTelemetry:
    def test_start_stop_ownership(self):
        mem = MemoryTelemetry()
        assert not mem.active
        mem.start()
        assert mem.active
        mem.stop()
        assert not tracemalloc.is_tracing()

    def test_does_not_stop_foreign_tracing(self):
        tracemalloc.start()
        try:
            mem = MemoryTelemetry().start()  # no-op: already tracing
            mem.stop()
            assert tracemalloc.is_tracing()  # left alone
        finally:
            tracemalloc.stop()

    def test_context_manager(self):
        with MemoryTelemetry() as mem:
            assert mem.active
        assert not tracemalloc.is_tracing()

    def test_phase_records_alloc_and_peak(self):
        reg = MetricsRegistry()
        with MemoryTelemetry() as mem:
            with mem.phase("search", reg):
                keep = [bytearray(64 * 1024) for _ in range(8)]
            del keep
        assert reg.counters["mem_search_alloc_bytes"] >= 8 * 64 * 1024
        assert reg.gauges["mem_search_peak_bytes"] >= 8 * 64 * 1024

    def test_phase_net_alloc_clamped_at_zero(self):
        ballast = [bytearray(64 * 1024) for _ in range(8)]
        reg = MetricsRegistry()
        with MemoryTelemetry() as mem:
            with mem.phase("free_only", reg):
                ballast.clear()  # phase frees more than it allocates
        assert reg.counters["mem_free_only_alloc_bytes"] == 0

    def test_phase_noop_without_tracing_or_registry(self):
        mem = MemoryTelemetry()
        reg = MetricsRegistry()
        with mem.phase("p", reg):  # tracing never started
            pass
        assert reg.counters == {} and reg.gauges == {}
        with MemoryTelemetry() as active:
            with active.phase("p", None):  # no registry
                pass

    def test_record_gauges(self):
        reg = MetricsRegistry()
        MemoryTelemetry().record_gauges(reg)
        assert reg.gauges["process_peak_rss_bytes"] == peak_rss_bytes()
        assert "tracemalloc_current_bytes" not in reg.gauges
        with MemoryTelemetry() as mem:
            mem.record_gauges(reg)
            assert reg.gauges["tracemalloc_peak_bytes"] >= 0
        MemoryTelemetry().record_gauges(None)  # must not raise


class TestSolverIntegration:
    def make_solver(self, sj, **kwargs):
        kwargs.setdefault("landmarks", 8)
        return KPJSolver(sj.graph, sj.categories, **kwargs)

    def test_query_records_phase_attribution(self, sj):
        reg = MetricsRegistry()
        with MemoryTelemetry() as mem:
            solver = self.make_solver(sj, metrics=reg, memory=mem)
            solver.top_k(3, category="T2", k=3)
        assert "mem_prepare_alloc_bytes" in reg.counters
        assert "mem_search_alloc_bytes" in reg.counters
        assert reg.gauges["mem_search_peak_bytes"] > 0
        assert reg.gauges["process_peak_rss_bytes"] > 0
        assert reg.gauges["tracemalloc_peak_bytes"] > 0
        assert reg.gauges["flat_scratch_pool_bytes"] >= 0

    def test_memory_without_tracing_still_stamps_rss(self, sj):
        reg = MetricsRegistry()
        solver = self.make_solver(sj, metrics=reg, memory=MemoryTelemetry())
        solver.top_k(3, category="T2", k=3)
        assert reg.gauges["process_peak_rss_bytes"] > 0
        assert "mem_search_alloc_bytes" not in reg.counters

    def test_telemetry_does_not_change_answers(self, sj):
        plain = self.make_solver(sj).top_k(3, category="T2", k=5)
        with MemoryTelemetry() as mem:
            traced = self.make_solver(
                sj, metrics=MetricsRegistry(), memory=mem
            ).top_k(3, category="T2", k=5)
        assert traced.lengths == plain.lengths
