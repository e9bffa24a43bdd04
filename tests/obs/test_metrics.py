"""Unit tests for the query-lifecycle metrics registry."""

import math
import pickle

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    LOADTEST_LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    SEARCH_PHASES,
    log_buckets,
    maybe_phase,
    parse_prom,
)


class TestHistogram:
    def test_observe_and_count(self):
        hist = Histogram((1.0, 10.0))
        for value in (0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.total == 4
        assert hist.sum == pytest.approx(56.0)
        assert hist.counts == [2, 1, 1]  # <=1, <=10, overflow

    def test_boundary_lands_in_its_bucket(self):
        hist = Histogram((1.0, 10.0))
        hist.observe(1.0)
        assert hist.counts[0] == 1  # le semantics: 1.0 <= 1.0

    def test_quantile_interpolates(self):
        hist = Histogram((10.0,))
        for _ in range(10):
            hist.observe(5.0)
        # All mass in [0, 10]: the median interpolates to mid-bucket.
        assert hist.quantile(0.5) == pytest.approx(5.0)

    def test_quantile_empty_is_nan(self):
        assert math.isnan(Histogram().quantile(0.5))

    def test_quantile_overflow_reports_top_bound(self):
        hist = Histogram((1.0,))
        hist.observe(100.0)
        assert hist.quantile(0.99) == 1.0

    def test_quantile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            Histogram().quantile(0.0)
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    # The edge cases below pin the documented quantile contract
    # (Histogram.quantile docstring); a behaviour change here is a
    # breaking change, not a refactor.
    def test_quantile_zero_raises_even_when_populated(self):
        hist = Histogram((1.0,))
        hist.observe(0.5)
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(0.0)
        with pytest.raises(ValueError):
            hist.quantile(-0.5)

    def test_quantile_empty_is_nan_for_every_valid_q(self):
        hist = Histogram((1.0, 10.0))
        for q in (1e-9, 0.5, 0.95, 1.0):
            assert math.isnan(hist.quantile(q))

    def test_quantile_all_overflow_reports_top_finite_bound(self):
        # Every observation above the top bucket: all quantiles clamp
        # to the largest finite bound, never inf, never the raw value.
        hist = Histogram((1.0, 10.0))
        for _ in range(5):
            hist.observe(1e9)
        for q in (0.01, 0.5, 1.0):
            assert hist.quantile(q) == 10.0

    def test_quantile_overflow_with_no_finite_buckets_is_inf(self):
        hist = Histogram(())
        hist.observe(42.0)
        assert hist.quantile(0.5) == math.inf

    def test_quantile_exact_boundary_rank_reports_upper_bound(self):
        # One observation per bucket; q=0.5 ranks exactly at the first
        # bucket's cumulative edge and must report that bucket's le.
        hist = Histogram((1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        assert hist.quantile(0.5) == pytest.approx(1.0)
        assert hist.quantile(1.0) == pytest.approx(10.0)

    def test_quantile_q1_single_observation_stays_in_bucket(self):
        # q=1.0 with all mass in one bucket interpolates to that
        # bucket's upper bound — an off-by-one would report the next.
        hist = Histogram((1.0, 10.0, 100.0))
        hist.observe(5.0)
        assert hist.quantile(1.0) == pytest.approx(10.0)

    def test_quantile_first_bucket_interpolates_from_zero(self):
        hist = Histogram((10.0,))
        for _ in range(4):
            hist.observe(1.0)
        # Median of mass in [0, 10] interpolates from lo=0.
        assert hist.quantile(0.5) == pytest.approx(5.0)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram((5.0, 1.0))

    def test_merge_adds_bucketwise(self):
        a, b = Histogram((1.0,)), Histogram((1.0,))
        a.observe(0.5)
        b.observe(2.0)
        a.merge(b)
        assert a.total == 2
        assert a.counts == [1, 1]
        assert a.sum == pytest.approx(2.5)

    def test_merge_rejects_mismatched_buckets(self):
        with pytest.raises(ValueError, match="different buckets"):
            Histogram((1.0,)).merge(Histogram((2.0,)))

    def test_dict_round_trip(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(1.5)
        clone = Histogram.from_dict(hist.as_dict())
        assert clone.as_dict() == hist.as_dict()


class TestMetricsRegistry:
    def test_counters_add(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counters == {"a": 5}

    def test_gauges_keep_max(self):
        reg = MetricsRegistry()
        reg.set_gauge("peak", 3)
        reg.set_gauge("peak", 1)
        reg.set_gauge("peak", 7)
        assert reg.gauges == {"peak": 7}

    def test_observe_phase_accumulates(self):
        reg = MetricsRegistry()
        reg.observe_phase("p", 0.5)
        reg.observe_phase("p", 0.25, calls=3)
        assert reg.phases["p"] == [0.75, 4]

    def test_phase_timer_records_positive_time(self):
        reg = MetricsRegistry()
        with reg.phase_timer("p"):
            sum(range(1000))
        seconds, calls = reg.phases["p"]
        assert seconds > 0
        assert calls == 1

    def test_phase_timer_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.phase_timer("p"):
                raise RuntimeError("boom")
        assert reg.phases["p"][1] == 1

    def test_phase_seconds_subsets(self):
        reg = MetricsRegistry()
        reg.observe_phase("a", 1.0)
        reg.observe_phase("b", 2.0)
        assert reg.phase_seconds() == pytest.approx(3.0)
        assert reg.phase_seconds(["a"]) == pytest.approx(1.0)
        assert reg.phase_seconds(["missing"]) == 0.0

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        a.set_gauge("g", 5)
        b.set_gauge("g", 3)
        a.observe_phase("p", 1.0)
        b.observe_phase("p", 0.5, calls=2)
        b.observe("h", 4.0)
        a.merge(b)
        assert a.counters["c"] == 3
        assert a.gauges["g"] == 5  # max, not sum
        assert a.phases["p"] == [1.5, 3]
        assert a.histograms["h"].total == 1

    def test_merge_accepts_snapshot_mapping(self):
        src = MetricsRegistry()
        src.inc("c", 2)
        src.observe("h", 1.0)
        dst = MetricsRegistry()
        dst.merge(src.as_dict())
        assert dst.counters["c"] == 2
        assert dst.histograms["h"].total == 1

    def test_merge_folds_a_snapshot_in_place(self):
        src = MetricsRegistry()
        src.inc("c", 2)
        src.set_gauge("g", 3)
        src.observe_phase("p", 0.5, calls=2)
        src.observe("h", 1.0)
        snapshot = src.as_dict()
        frozen = pickle.loads(pickle.dumps(snapshot))
        dst = MetricsRegistry().merge(snapshot).merge(snapshot)
        assert dst.as_dict() == MetricsRegistry().merge(src).merge(src).as_dict()
        # Mutating the aggregate leaves the merged snapshot untouched:
        # no phase entry or bucket list is shared with it.
        dst.observe_phase("p", 1.0)
        dst.observe("h", 1.0)
        dst.inc("c")
        assert snapshot == frozen
        bad = MetricsRegistry()
        bad.observe("h", 1.0, buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="different buckets"):
            dst.merge(bad.as_dict())

    def test_snapshot_is_picklable(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("h", 1.0)
        snapshot = reg.as_dict()
        clone = MetricsRegistry.from_dict(pickle.loads(pickle.dumps(snapshot)))
        assert clone.as_dict() == snapshot

    def test_merge_stats_folds_nonzero_counters(self):
        from repro.core.stats import SearchStats

        reg = MetricsRegistry()
        reg.merge_stats(SearchStats(nodes_settled=7))
        assert reg.counters == {"nodes_settled": 7}

    def test_report_structure(self):
        reg = MetricsRegistry()
        reg.observe_phase("prepare", 0.002)
        reg.inc("queries", 3)
        reg.set_gauge("peak", 9)
        for value in (1.0, 2.0, 3.0):
            reg.observe("query_latency_ms", value)
        report = reg.report()
        assert report["phases"]["prepare"]["ms"] == pytest.approx(2.0)
        assert report["counters"] == {"queries": 3}
        assert report["gauges"] == {"peak": 9}
        hist = report["histograms"]["query_latency_ms"]
        assert hist["count"] == 3
        assert hist["p50"] <= hist["p95"] <= hist["p99"]

    def test_render_text_mentions_everything(self):
        reg = MetricsRegistry()
        reg.observe_phase("prepare", 0.001)
        reg.inc("queries")
        reg.set_gauge("peak", 2)
        reg.observe("lat", 1.0)
        text = reg.render_text()
        for needle in ("prepare", "queries", "peak", "lat", "p95"):
            assert needle in text

    def test_render_text_empty(self):
        assert "(empty)" in MetricsRegistry().render_text()


class TestMaybePhase:
    def test_none_is_noop_context(self):
        with maybe_phase(None, "p"):
            pass  # must not raise, must not allocate a registry

    def test_registry_records(self):
        reg = MetricsRegistry()
        with maybe_phase(reg, "p"):
            pass
        assert "p" in reg.phases


class TestPromExposition:
    def make_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.observe_phase("prepare", 0.001)
        reg.observe_phase("comp_sp", 0.002, calls=2)
        reg.inc("queries", 5)
        reg.set_gauge("spt_heap_peak", 17)
        for value in (0.2, 3.0, 700.0):
            reg.observe("query_latency_ms", value)
        return reg

    def test_round_trip(self):
        reg = self.make_registry()
        samples = parse_prom(reg.render_prom())
        assert samples[
            ("kpj_phase_seconds_total", (("phase", "prepare"),))
        ] == pytest.approx(0.001)
        assert samples[("kpj_phase_calls_total", (("phase", "comp_sp"),))] == 2
        assert samples[("kpj_queries_total", ())] == 5
        assert samples[("kpj_spt_heap_peak", ())] == 17
        assert samples[("kpj_query_latency_ms_count", ())] == 3
        assert samples[("kpj_query_latency_ms_bucket", (("le", "+Inf"),))] == 3

    def test_histogram_buckets_are_cumulative(self):
        reg = self.make_registry()
        samples = parse_prom(reg.render_prom())
        counts = [
            samples[("kpj_query_latency_ms_bucket", (("le", f"{b:g}"),))]
            for b in DEFAULT_LATENCY_BUCKETS_MS
        ]
        assert counts == sorted(counts)  # monotone non-decreasing
        assert counts[-1] == 3

    def test_values_round_trip_exactly(self):
        """Counters and gauges read back as recorded: ``{:g}`` would
        have written 1234567 as ``1.23457e+06``."""
        reg = MetricsRegistry()
        reg.inc("edges_relaxed", 1_234_567)
        reg.set_gauge("prepared_cache_bytes", 135_000_123)
        reg.set_gauge("load_ratio", 0.1 + 0.2)
        samples = parse_prom(reg.render_prom())
        assert samples[("kpj_edges_relaxed_total", ())] == 1_234_567
        assert samples[("kpj_prepared_cache_bytes", ())] == 135_000_123
        assert samples[("kpj_load_ratio", ())] == 0.1 + 0.2
        text = reg.render_text()
        for shown in ("1234567", "135000123", repr(0.1 + 0.2)):
            assert f"  {shown}\n" in text + "\n", shown

    def test_deterministic_output(self):
        reg = self.make_registry()
        assert reg.render_prom() == reg.render_prom()

    def test_parser_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            parse_prom("kpj_x_total NaN\n")

    def test_parser_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            parse_prom("kpj_x_total +Inf\n")

    def test_parser_rejects_negative_by_default(self):
        with pytest.raises(ValueError, match="negative"):
            parse_prom("kpj_x_total -1\n")
        assert parse_prom("kpj_x_total -1\n", require_non_negative=False) == {
            ("kpj_x_total", ()): -1.0
        }

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prom("not a metric line\n" * 2)
        with pytest.raises(ValueError, match="unterminated"):
            parse_prom('kpj_x{phase="p" 1\n')
        with pytest.raises(ValueError, match="unparseable"):
            parse_prom("kpj_x_total twelve\n")

    def test_parser_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_prom("kpj_x_total 1\nkpj_x_total 2\n")

    def test_parser_skips_comments_and_blanks(self):
        assert parse_prom("# HELP something\n\n# TYPE x counter\n") == {}


class TestSearchPhases:
    def test_driver_phases_are_a_known_set(self):
        assert set(SEARCH_PHASES) == {"comp_sp", "spt_grow", "test_lb", "division"}


class TestLogBuckets:
    def test_bounds_are_strictly_increasing_and_span_range(self):
        bounds = log_buckets(0.1, 1000.0, 5)
        assert list(bounds) == sorted(bounds)
        assert len(set(bounds)) == len(bounds)
        assert bounds[0] == pytest.approx(0.1)
        assert bounds[-1] >= 1000.0

    def test_per_decade_controls_resolution(self):
        coarse = log_buckets(1.0, 1000.0, 1)
        fine = log_buckets(1.0, 1000.0, 10)
        assert len(coarse) == 4  # 1, 10, 100, 1000
        assert len(fine) > len(coarse)
        # Consecutive bounds keep a ~constant ratio (log spacing).
        ratios = [b / a for a, b in zip(fine, fine[1:])]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError, match="lo must be finite"):
            log_buckets(0.0, 10.0)
        with pytest.raises(ValueError, match="lo must be finite"):
            log_buckets(math.inf, 10.0)
        with pytest.raises(ValueError, match="hi must be finite"):
            log_buckets(10.0, 10.0)
        with pytest.raises(ValueError, match="per_decade"):
            log_buckets(1.0, 10.0, 0)

    def test_histogram_accepts_log_buckets(self):
        hist = Histogram(log_buckets(0.1, 100.0, 3))
        hist.observe(5.0)
        assert hist.total == 1

    def test_default_buckets_collapse_deep_tail_to_last_finite_bound(self):
        """The edge case that motivated log_buckets: every sample past
        the top DEFAULT bound lands in the +Inf overflow bucket, and
        any quantile that resolves there collapses to the last finite
        bound — 6 s of queueing reads as exactly 5000.0 ms.
        """
        queueing = Histogram(DEFAULT_LATENCY_BUCKETS_MS)
        for _ in range(1000):
            queueing.observe(6000.0)
        assert queueing.quantile(0.999) == DEFAULT_LATENCY_BUCKETS_MS[-1]
        assert queueing.quantile(0.5) == DEFAULT_LATENCY_BUCKETS_MS[-1]

    def test_loadtest_buckets_resolve_the_same_tail(self):
        hist = Histogram(LOADTEST_LATENCY_BUCKETS_MS)
        for _ in range(1000):
            hist.observe(6000.0)
        p999 = hist.quantile(0.999)
        # Resolved within one log-spaced bucket of the true value, not
        # pinned to the range's top bound.
        assert 6000.0 <= p999 < LOADTEST_LATENCY_BUCKETS_MS[-1]
        assert p999 == pytest.approx(6000.0, rel=0.65)

    def test_loadtest_buckets_span_sub_ms_to_minutes(self):
        assert LOADTEST_LATENCY_BUCKETS_MS[0] <= 0.05
        assert LOADTEST_LATENCY_BUCKETS_MS[-1] >= 120_000.0
