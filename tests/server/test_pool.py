"""Unit tests for batched parallel query serving.

The acceptance bar for the pool is strict: answers from
``solve_batch(..., workers>1)`` must be **identical** to sequential
solving, in submission order, with the prepared-category cache warm.
"""

from contextlib import contextmanager

import pytest

from repro.core.kpj import KPJSolver
from repro.core.stats import SearchStats
from repro.datasets.registry import road_network
from repro.exceptions import QueryError
from repro.obs.metrics import SEARCH_PHASES, MetricsRegistry
from repro.obs.tracing import SpanTracer
from repro.server.service import BatchQuery, _coerce, run_batch


@pytest.fixture(scope="module")
def sj_solver():
    """A solver over the SJ registry dataset (small but non-trivial)."""
    dataset = road_network("SJ")
    return dataset, KPJSolver(dataset.graph, dataset.categories, landmarks=8)


def _query_mix(dataset, count: int) -> list[BatchQuery]:
    """A deterministic workload cycling sources and categories."""
    cats = sorted(dataset.categories._sets)
    return [
        BatchQuery(
            source=(i * 97) % dataset.n,
            category=cats[i % len(cats)],
            k=5,
            algorithm="iter-bound-spti",
        )
        for i in range(count)
    ]


def _fingerprint(results):
    return [
        (r.algorithm, tuple((p.nodes, p.length) for p in r.paths))
        for r in results
    ]


def _gained(solver, before: dict) -> dict:
    """Per-counter change of ``solver.stats`` since the ``before``
    snapshot (the module solver is shared across tests)."""
    return {
        name: value - before[name]
        for name, value in solver.stats.as_dict().items()
    }


@contextmanager
def _attached(solver, metrics=None, tracer=None):
    """Attach observers to the shared module solver for one block; the
    solver gets its own back afterwards."""
    saved = solver.metrics, solver.tracer
    solver.metrics, solver.tracer = metrics, tracer
    try:
        yield
    finally:
        solver.metrics, solver.tracer = saved


class TestCoercion:
    def test_batchquery_passthrough(self):
        q = BatchQuery(source=1, category="T1")
        assert _coerce(q) is q

    def test_mapping_coerces(self):
        q = _coerce({"source": 2, "destinations": [5, 3], "k": 2})
        assert q == BatchQuery(source=2, destinations=(5, 3), k=2)

    def test_malformed_mapping_raises(self):
        with pytest.raises(QueryError, match="malformed"):
            _coerce({"source": 1, "bogus_field": 3})

    def test_wrong_type_raises(self):
        with pytest.raises(QueryError, match="BatchQuery or mappings"):
            _coerce(42)


class TestSequential:
    def test_empty_batch(self, sj_solver):
        _, solver = sj_solver
        assert solver.solve_batch([]) == []

    def test_matches_top_k(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 6)
        results = solver.solve_batch(queries)
        for q, r in zip(queries, results):
            direct = solver.top_k(
                q.source, category=q.category, k=q.k, algorithm=q.algorithm
            )
            assert _fingerprint([r]) == _fingerprint([direct])

    def test_invalid_query_propagates(self, sj_solver):
        _, solver = sj_solver
        with pytest.raises(QueryError):
            solver.solve_batch([BatchQuery(source=0, category="no-such")])

    def test_repeat_categories_hit_cache(self, sj_solver):
        dataset, _ = sj_solver
        solver = KPJSolver(dataset.graph, dataset.categories, landmarks=None)
        queries = [
            BatchQuery(source=s, category="T2", k=3) for s in (1, 5, 9, 13)
        ]
        results = solver.solve_batch(queries)
        hits = sum(r.stats.prepared_cache_hits for r in results)
        assert hits == len(queries) - 1  # all but the first reuse the entry


class TestParallel:
    def test_fifty_queries_identical_to_sequential(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 50)
        sequential = solver.solve_batch(queries, workers=1)
        parallel = solver.solve_batch(queries, workers=3)
        assert _fingerprint(parallel) == _fingerprint(sequential)

    def test_parallel_queries_arrive_with_warm_cache(self, sj_solver):
        dataset, _ = sj_solver
        solver = KPJSolver(dataset.graph, dataset.categories, landmarks=None)
        queries = [
            BatchQuery(source=s, category="T1", k=3) for s in range(10)
        ]
        results = solver.solve_batch(queries, workers=2)
        # run_batch warms the prepared cache before forking, so every
        # worker-answered query is a cache hit.
        assert all(r.stats.prepared_cache_hits == 1 for r in results)
        assert sum(r.stats.prepared_cache_misses for r in results) == 0

    def test_order_preserved_under_parallelism(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 12)
        results = solver.solve_batch(queries, workers=4)
        for q, r in zip(queries, results):
            direct = solver.top_k(
                q.source, category=q.category, k=q.k, algorithm=q.algorithm
            )
            assert _fingerprint([r]) == _fingerprint([direct])

    def test_workers_capped_by_batch_size(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 2)
        results = solver.solve_batch(queries, workers=16)
        assert len(results) == 2

    def test_run_batch_function_directly(self, sj_solver):
        dataset, solver = sj_solver
        queries = [{"source": 3, "category": "T2", "k": 2}]
        results = run_batch(solver, queries, workers=2)
        assert len(results) == 1
        assert results[0].paths


class TestStatsAggregation:
    def test_sequential_total_is_sum_of_results(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 8)
        before = solver.stats.as_dict()
        results = solver.solve_batch(queries)
        total = _gained(solver, before)
        expected = SearchStats()
        for r in results:
            expected.merge(r.stats)
        assert total == expected.as_dict()
        assert total["lb_tests"] > 0
        assert total["nodes_settled"] > 0

    def test_parallel_total_includes_worker_counters(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 12)
        before = solver.stats.as_dict()
        solver.solve_batch(queries, workers=1)
        seq = _gained(solver, before)
        before = solver.stats.as_dict()
        results = solver.solve_batch(queries, workers=3)
        par = _gained(solver, before)
        # Search-work counters ride back with each result and merge to
        # the same totals regardless of which process did the work.
        for field in (
            "shortest_path_computations",
            "lower_bound_computations",
            "lb_tests",
            "lb_test_failures",
            "nodes_settled",
            "edges_relaxed",
            "subspaces_created",
        ):
            assert par[field] == seq[field], field
        assert par["lb_tests"] == sum(r.stats.lb_tests for r in results)

    def test_parallel_total_counts_parent_warm_up(self, sj_solver):
        dataset, _ = sj_solver
        solver = KPJSolver(dataset.graph, dataset.categories, landmarks=None)
        queries = [
            BatchQuery(source=s, category="T1", k=3) for s in range(8)
        ]
        solver.solve_batch(queries, workers=2)
        total = solver.stats
        # The pre-fork warm-up's cache misses belong to no single query
        # but must appear in the aggregate; every worker-answered query
        # is then a hit.
        assert total.prepared_cache_misses >= 1
        assert total.prepared_cache_hits >= len(queries)


class TestMetricsAggregation:
    def test_sequential_aggregate_equals_sum_of_snapshots(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 6)
        agg = MetricsRegistry()
        with _attached(solver, metrics=agg):
            results = solver.solve_batch(queries)
            assert solver.metrics is agg  # left as the batch found it
        expected = MetricsRegistry()
        for r in results:
            assert r.metrics is not None
            expected.merge(r.metrics)
        # The two histograms are recorded into the solver's registry
        # alone (workers cannot know the enqueue time, and a
        # one-sample latency histogram would double every snapshot),
        # so they are the series the per-query snapshots never contain.
        queue_wait = agg.histograms.pop("queue_wait_ms")
        assert queue_wait.total == len(queries)
        latency = agg.histograms.pop("query_latency_ms")
        assert latency.total == len(queries)
        # No fork, no warm-up: the rest IS the sum of snapshots.
        assert agg.as_dict() == expected.as_dict()
        assert agg.counters["queries"] == len(queries)

    def test_parallel_aggregate_is_snapshots_plus_warmup(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 12)
        agg = MetricsRegistry()
        with _attached(solver, metrics=agg):
            results = solver.solve_batch(queries, workers=3)
        expected = MetricsRegistry()
        for r in results:
            assert r.metrics is not None
            expected.merge(r.metrics)
        assert "warmup" in agg.phases
        assert "warmup" not in expected.phases  # belongs to no query
        # Everything per-query matches the merged snapshots exactly;
        # only the warm-up's own phase/counters ride on top.
        assert agg.counters["queries"] == expected.counters["queries"] == len(
            queries
        )
        for name in SEARCH_PHASES:
            if name in expected.phases:
                assert agg.phases[name] == expected.phases[name], name
        assert agg.histograms["query_latency_ms"].total == len(queries)

    def test_parallel_and_sequential_deterministic_totals_match(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 12)
        seq, par = MetricsRegistry(), MetricsRegistry()
        with _attached(solver, metrics=seq):
            solver.solve_batch(queries, workers=1)
        with _attached(solver, metrics=par):
            solver.solve_batch(queries, workers=3)
        # Wall times differ run to run, but the *call counts* of every
        # search phase are a property of the algorithm, not the
        # schedule (the module solver's cache is warm for both runs).
        assert seq.counters["queries"] == par.counters["queries"]
        for name in SEARCH_PHASES:
            seq_calls = seq.phases.get(name, [0, 0])[1]
            par_calls = par.phases.get(name, [0, 0])[1]
            assert seq_calls == par_calls, name

    def test_solver_registry_kept_when_preattached(self, sj_solver):
        dataset, _ = sj_solver
        own = MetricsRegistry()
        solver = KPJSolver(
            dataset.graph, dataset.categories, landmarks=None, metrics=own
        )
        queries = [BatchQuery(source=s, category="T2", k=3) for s in (1, 5)]
        solver.solve_batch(queries)
        assert solver.metrics is own  # not detached
        assert own.counters["queries"] == 2  # sequential merges land on it
        solver.solve_batch(queries, workers=2)
        assert solver.metrics is own  # nor replaced by the service's
        assert own.counters["queries"] == 4  # and so does the service's

    def test_metrics_none_leaves_results_bare(self, sj_solver):
        dataset, solver = sj_solver
        results = solver.solve_batch(_query_mix(dataset, 2))
        assert all(r.metrics is None for r in results)
        assert all(r.elapsed_ms > 0 for r in results)


def _worker_tag_total(metrics) -> tuple[int, set[str]]:
    """Worker tags from a registry or a per-query snapshot mapping."""
    counters = getattr(metrics, "counters", None)
    if counters is None:
        counters = (metrics or {}).get("counters", {})
    tags = {
        name: int(count)
        for name, count in counters.items()
        if name.startswith("worker_") and name.endswith("_queries")
    }
    return sum(tags.values()), set(tags)


class TestWorkerAttribution:
    def test_parallel_snapshots_carry_worker_index(self, sj_solver):
        """The service counts which worker answered; the per-query
        snapshots, merged into the same aggregate, carry no tag."""
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 8)
        agg = MetricsRegistry()
        with _attached(solver, metrics=agg):
            results = solver.solve_batch(queries, workers=2)
        # Every query was answered by exactly one indexed worker...
        total, names = _worker_tag_total(agg)
        assert total == len(queries)
        assert names <= {"worker_0_queries", "worker_1_queries"}
        # ...which its own snapshot does not repeat.
        for r in results:
            assert _worker_tag_total(r.metrics) == (0, set())

    def test_sequential_batches_are_untagged(self, sj_solver):
        dataset, solver = sj_solver
        agg = MetricsRegistry()
        with _attached(solver, metrics=agg):
            solver.solve_batch(_query_mix(dataset, 3), workers=1)
        assert _worker_tag_total(agg) == (0, set())


class TestWorkerCountParity:
    """A solver built with its own registry and tracer records the same
    batch at any worker count; the service only adds its telemetry."""

    @staticmethod
    def _observed_batch(dataset, queries, workers):
        metrics, tracer = MetricsRegistry(), SpanTracer()
        solver = KPJSolver(
            dataset.graph, dataset.categories, landmarks=8,
            metrics=metrics, tracer=tracer,
        )
        solver.solve_batch(queries, workers=workers)
        assert solver.metrics is metrics and solver.tracer is tracer
        return metrics, tracer.spans, solver.stats

    def test_solver_observers_see_the_batch_at_any_worker_count(
        self, sj_solver
    ):
        dataset, _ = sj_solver
        queries = _query_mix(dataset, 8)
        seq, seq_spans, _ = self._observed_batch(dataset, queries, 1)
        par, par_spans, par_stats = self._observed_batch(dataset, queries, 2)
        for registry in (seq, par):
            assert registry.counters["queries"] == len(queries)
            assert registry.histograms["query_latency_ms"].total == len(queries)
        for name in SEARCH_PHASES:
            assert seq.phases[name][1] == par.phases[name][1], name
        for spans in (seq_spans, par_spans):
            (batch,) = [s for s in spans if s["name"] == "batch"]
            trees = [s for s in spans if s["name"] == "query"]
            assert len(trees) == len(queries)
            assert all(q["parent"] == batch["id"] for q in trees)
        # What only the service path records: its one-time warmup (a
        # phase, and a span under the batch span), its counters, the
        # worker tags, and the parent-side prewarm's cache misses,
        # after which every worker-answered query is a cache hit.
        assert "warmup" not in seq.phases and "warmup" in par.phases
        assert not [s for s in seq_spans if s["name"] == "warmup"]
        (warmup,) = [s for s in par_spans if s["name"] == "warmup"]
        assert warmup["parent"] == batch["id"]
        # The service times its start once, for both views.
        assert warmup["dur"] == par.phases["warmup"][0]
        assert not [c for c in seq.counters if c.startswith("service_")]
        assert par.counters["service_queries"] == len(queries)
        assert _worker_tag_total(seq) == (0, set())
        assert _worker_tag_total(par)[0] == len(queries)
        categories = {q.category for q in queries}
        assert par_stats.prepared_cache_misses == len(categories)
        assert par_stats.prepared_cache_hits == len(queries)


class TestFailureMerge:
    """A failing query must not discard completed queries' telemetry."""

    def _mixed_batch(self, dataset, good: int) -> list[BatchQuery]:
        queries = _query_mix(dataset, good)
        queries.append(BatchQuery(source=0, category="NOPE", k=3))
        return queries

    @pytest.mark.parametrize("workers", [1, 2])
    def test_completed_metrics_survive_a_failure(self, sj_solver, workers):
        dataset, solver = sj_solver
        agg = MetricsRegistry()
        before = solver.stats.shortest_path_computations
        with _attached(solver, metrics=agg), \
                pytest.raises(QueryError, match="NOPE"):
            solver.solve_batch(self._mixed_batch(dataset, 4), workers=workers)
        # Nothing completed is dropped: all four good queries land.
        assert agg.counters["queries"] == 4
        assert agg.histograms["query_latency_ms"].total == agg.counters["queries"]
        assert solver.stats.shortest_path_computations > before

    def test_a_failing_first_query_fails_alike_at_any_worker_count(
        self, sj_solver
    ):
        """One failure rule: every query runs and the first failure is
        raised after the batch, so a bad first query stops nothing."""
        dataset, solver = sj_solver
        queries = [BatchQuery(source=0, category="NOPE", k=3)]
        queries += _query_mix(dataset, 4)
        seen = []
        for workers in (1, 2):
            agg = MetricsRegistry()
            before = solver.stats.shortest_path_computations
            with _attached(solver, metrics=agg), \
                    pytest.raises(QueryError, match="NOPE"):
                solver.solve_batch(queries, workers=workers)
            gained = solver.stats.shortest_path_computations - before
            seen.append((agg.counters["queries"], gained))
        assert seen[0] == seen[1]
        assert seen[0][0] == 4

    def test_failure_without_metrics_still_raises(self, sj_solver):
        dataset, solver = sj_solver
        with pytest.raises(QueryError, match="NOPE"):
            solver.solve_batch(self._mixed_batch(dataset, 2), workers=2)

    def test_timing_merged_on_failure_path(self, sj_solver):
        """Like the completed-snapshot merge, sibling timing telemetry
        survives a bad query: completed queries' queue waits land in
        the aggregate even though the batch raises."""
        dataset, solver = sj_solver
        agg = MetricsRegistry()
        with _attached(solver, metrics=agg), \
                pytest.raises(QueryError, match="NOPE"):
            solver.solve_batch(self._mixed_batch(dataset, 4), workers=2)
        assert agg.histograms["queue_wait_ms"].total == 4


class TestTimingStamps:
    """Serving-side queue-wait vs service-time attribution (§3h)."""

    def test_sequential_results_carry_zero_queue_wait(self, sj_solver):
        dataset, solver = sj_solver
        results = solver.solve_batch(_query_mix(dataset, 6), workers=1)
        for r in results:
            assert r.timing is not None
            assert r.timing["queue_wait_s"] == 0.0
            assert r.timing["enqueued_at_s"] >= 0.0
            assert r.timing["started_at_s"] == r.timing["enqueued_at_s"]

    def test_parallel_results_carry_consistent_offsets(self, sj_solver):
        dataset, solver = sj_solver
        results = solver.solve_batch(_query_mix(dataset, 12), workers=2)
        for r in results:
            timing = r.timing
            assert timing is not None
            assert set(timing) == {
                "enqueued_at_s", "started_at_s", "queue_wait_s"
            }
            assert timing["started_at_s"] >= timing["enqueued_at_s"] >= 0.0
            assert timing["queue_wait_s"] == pytest.approx(
                timing["started_at_s"] - timing["enqueued_at_s"]
            )

    def test_queue_wait_histogram_counts_every_completion(self, sj_solver):
        dataset, solver = sj_solver
        agg = MetricsRegistry()
        queries = _query_mix(dataset, 8)
        with _attached(solver, metrics=agg):
            solver.solve_batch(queries, workers=2)
        hist = agg.histograms["queue_wait_ms"]
        assert hist.total == len(queries)
        assert hist.sum >= 0.0

    def test_timing_serialises_in_to_dict(self, sj_solver):
        dataset, solver = sj_solver
        (result,) = solver.solve_batch(_query_mix(dataset, 1), workers=1)
        assert result.to_dict()["timing"] == result.timing


@pytest.mark.slow
def test_large_batch_identical_across_worker_counts(sj_solver):
    """200 queries, every worker count 1..4, identical fingerprints."""
    dataset, solver = sj_solver
    queries = _query_mix(dataset, 200)
    baseline = solver.solve_batch(queries, workers=1)
    for workers in (2, 3, 4):
        got = solver.solve_batch(queries, workers=workers)
        assert _fingerprint(got) == _fingerprint(baseline), workers
