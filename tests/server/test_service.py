"""The resident-worker query service (`repro.server.service`).

The acceptance bar mirrors `test_pool.py`: answers through the
service must be identical to sequential solving, with the additional
service-tier contracts on top — shared-memory residency visible from
the workers, warm-up paid exactly once, telemetry on the standard
MetricsRegistry stack, and no shared-memory segments leaked after
shutdown.
"""

from contextlib import contextmanager

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.exceptions import QueryError
from repro.obs.metrics import MetricsRegistry, parse_prom
from repro.obs.tracing import SpanTracer
from repro.server.service import BatchQuery, QueryService, run_batch
from repro.server.shared import active_segments


@pytest.fixture(scope="module")
def sj_solver():
    dataset = road_network("SJ")
    return dataset, KPJSolver(dataset.graph, dataset.categories, landmarks=8)


@pytest.fixture(scope="module")
def service(sj_solver):
    """One module-wide running service (startup forks processes)."""
    _, solver = sj_solver
    with QueryService(solver, workers=2, prewarm=("T2",)) as svc:
        yield svc


def _query_mix(dataset, count):
    cats = sorted(dataset.categories._sets)
    return [
        BatchQuery(source=(i * 97) % dataset.n, category=cats[i % len(cats)], k=5)
        for i in range(count)
    ]


def _fingerprint(results):
    return [
        (r.algorithm, tuple((p.nodes, p.length) for p in r.paths))
        for r in results
    ]


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


class TestLifecycle:
    def test_construction_validates(self, sj_solver):
        _, solver = sj_solver
        with pytest.raises(QueryError, match="at least one worker"):
            QueryService(solver, workers=0)
        with pytest.raises(QueryError, match="max_pending"):
            QueryService(solver, max_pending=0)
        # The deadline a query falls back to passes the same check as
        # its own ``timeout_s``: -1 would fail every query, NaN would
        # turn deadlines off, a string would raise TypeError mid-query.
        for bad in (-1, float("nan"), "x"):
            with pytest.raises(QueryError, match="default_timeout_s"):
                QueryService(solver, default_timeout_s=bad)

    def test_double_start_rejected(self, service):
        with pytest.raises(QueryError, match="already started"):
            service.start()

    def test_submit_before_start_rejected(self, sj_solver):
        _, solver = sj_solver
        svc = QueryService(solver)
        with pytest.raises(QueryError, match="not running"):
            svc.query(BatchQuery(source=0, category="T1"))

    def test_shutdown_is_idempotent_and_unlinks(self, sj_solver):
        _, solver = sj_solver
        svc = QueryService(solver, workers=1)
        svc.start()
        segments = svc.shared_segments()
        assert all(name in active_segments() for name in segments)
        svc.shutdown()
        svc.shutdown()
        assert not set(segments) & set(active_segments())
        with pytest.raises(QueryError, match="not running"):
            svc.query(BatchQuery(source=0, category="T1"))

    def test_workers_are_resident_processes(self, service):
        import os

        pids = service.worker_pids()
        assert len(pids) == 2
        assert os.getpid() not in pids
        assert len(set(pids)) == 2


class TestCorrectness:
    def test_answers_identical_to_sequential(self, service, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 20)
        results = service.solve(queries)
        for q, r in zip(queries, results):
            direct = solver.top_k(
                q.source, category=q.category, k=q.k, algorithm=q.algorithm
            )
            assert _fingerprint([r]) == _fingerprint([direct])

    def test_destination_set_queries(self, service, sj_solver):
        dataset, solver = sj_solver
        q = BatchQuery(source=3, destinations=(9, 17, 25), k=4)
        result = service.query(q)
        direct = solver.top_k(q.source, destinations=q.destinations, k=q.k)
        assert _fingerprint([result]) == _fingerprint([direct])

    def test_invalid_query_is_clean_error(self, service):
        with pytest.raises(QueryError, match="NOPE"):
            service.query(BatchQuery(source=0, category="NOPE"))
        # The service survives the bad query.
        assert service.query(BatchQuery(source=1, category="T1", k=2)).paths

    def test_queries_hit_the_resident_warm_cache(self, service, sj_solver):
        # Steady state: the worker's prepared entry serves the query,
        # so its internal prepare is a cache hit, never a rebuild.
        result = service.query(BatchQuery(source=5, category="T2", k=3))
        assert result.stats.prepared_cache_hits >= 1
        assert result.stats.prepared_cache_misses == 0


class TestSharedResidency:
    def test_workers_map_the_parent_segments_read_only(self, service):
        for worker in range(service.workers):
            info = service.ping(worker)
            assert info["segments"] == list(service.shared_segments())
            assert info["csr_readonly"] is True

    def test_prewarmed_category_is_warm_in_every_worker(self, service):
        for worker in range(service.workers):
            info = service.ping(worker)
            assert info["cache"]["entries"] >= 1


class TestTiming:
    def test_timing_rebased_to_service_epoch(self, service, sj_solver):
        """The stamps are raw ``perf_counter`` seconds, not offsets."""
        dataset, _ = sj_solver
        results = service.solve(_query_mix(dataset, 6))
        for r in results:
            timing = r.timing
            assert set(timing) == {
                "enqueued_at_s", "started_at_s", "queue_wait_s"
            }
            assert timing["started_at_s"] >= timing["enqueued_at_s"] >= 0.0
            assert timing["queue_wait_s"] >= 0.0

    def test_timing_shares_the_record_clock(self, sj_solver):
        """A served query's ``timing`` and its record's events read one
        clock: the ``query`` event starts just after ``started_at_s``."""
        dataset, _ = sj_solver
        solver = KPJSolver(
            dataset.graph, dataset.categories, landmarks=4, tracer=SpanTracer()
        )
        with QueryService(solver, workers=1) as svc:
            result = svc.query(BatchQuery(source=7, category="T2", k=3))
        timing = result.timing
        assert timing["enqueued_at_s"] <= timing["started_at_s"]
        (query_start,) = [
            start for name, start, _, _ in result.trace["events"]
            if name == "query"
        ]
        assert 0.0 <= query_start - timing["started_at_s"] < 1.0


class TestTelemetry:
    def test_service_counters_and_histograms(self, sj_solver):
        dataset, solver = sj_solver
        with QueryService(solver, workers=1) as svc:
            svc.solve(_query_mix(dataset, 4))
        metrics = svc.metrics
        assert metrics.counters["service_queries"] == 4
        assert metrics.counters["worker_0_queries"] == 4
        assert metrics.counters["queries"] == 4  # per-query snapshots merged
        assert metrics.histograms["queue_wait_ms"].total == 4
        assert metrics.histograms["query_latency_ms"].total == 4
        assert "service_ms" not in metrics.histograms
        assert metrics.counters.get("service_rejected_overload", 0) == 0

    def test_coalescing_counts_come_from_the_replies(self, sj_solver):
        """A query that raises counts no prepare, and a key the parent
        has not seen but the worker holds warm counts as coalesced: the
        counters equal the served results' own cache lookups."""
        dataset, _ = sj_solver
        solver = KPJSolver(dataset.graph, dataset.categories, landmarks=4)
        nodes = tuple(dataset.categories.nodes_of("T2"))
        with QueryService(solver, workers=1) as svc:
            for bad in (
                BatchQuery(source=1, category="T9"),
                BatchQuery(source=10**6, category="T2"),
            ):
                with pytest.raises(QueryError):
                    svc.query(bad)
            for good in (
                BatchQuery(source=1, category="T2", k=3),
                BatchQuery(source=1, destinations=nodes),
            ):
                assert svc.query(good).paths
            counters = dict(svc.metrics.counters)
            stats = svc.stats
            warm = list(svc._residents[0].warm)
        assert counters["service_queries"] == 2
        assert counters["service_prepares"] == stats.prepared_cache_misses == 1
        assert (
            counters["service_prepares_coalesced"]
            == stats.prepared_cache_hits
            == 1
        )
        assert warm == [
            ("category", "T2"), ("destinations", tuple(sorted(nodes)))
        ]

    def test_a_solver_without_a_registry_is_left_without_one(self, sj_solver):
        """The workers install their own registry after the fork: the
        caller's solver is not touched, and served results still carry
        snapshots, tagged with no worker (the service counts those)."""
        dataset, _ = sj_solver
        solver = KPJSolver(dataset.graph, dataset.categories, landmarks=4)
        with QueryService(solver, workers=1) as svc:
            assert solver.metrics is None
            result = svc.query(BatchQuery(source=4, category="T1", k=2))
            assert solver.metrics is None
            counters = dict(svc.metrics.counters)
        assert solver.metrics is None
        snapshot = result.metrics["counters"]
        assert snapshot["queries"] == 1
        assert not [name for name in snapshot if name.startswith("worker_")]
        assert counters["worker_0_queries"] == 1

    def test_warmup_phase_paid_exactly_once(self, sj_solver):
        dataset, solver = sj_solver
        with QueryService(solver, workers=1, prewarm=("T1",)) as svc:
            svc.solve(_query_mix(dataset, 5))
            phases = svc.metrics.report()["phases"]
        assert phases["warmup"]["calls"] == 1
        assert phases["warmup"]["ms"] > 0.0

    def test_prewarm_cache_activity_lands_in_the_service_registry(self, sj_solver):
        dataset, _ = sj_solver
        solver = KPJSolver(dataset.graph, dataset.categories, landmarks=4)
        with QueryService(solver, workers=1, prewarm=("T1", "T2")) as svc:
            counters = dict(svc.metrics.counters)
            gauges = dict(svc.metrics.gauges)
            phases = dict(svc.metrics.phases)
        # The lookups count once, on the parent solver that made them.
        assert solver.stats.prepared_cache_misses == 2
        assert "prepared_cache_misses" not in counters
        assert gauges["prepared_cache_entries"] == 2
        assert "prepare" not in phases  # its time is inside ``warmup``

    def test_cold_key_counts_one_miss_on_every_surface(self, sj_solver):
        """A served query makes one prepared-cache lookup: a cold key's
        miss lands on its own result, on ``describe()["work"]`` and on
        the exposition; the parent's prewarm counts on neither."""
        dataset, _ = sj_solver
        solver = KPJSolver(dataset.graph, dataset.categories, landmarks=4)
        with QueryService(solver, workers=2, prewarm=("T1",)) as svc:
            results = [
                svc.query(BatchQuery(source=source, category=category, k=3))
                for source, category in ((1, "T1"), (2, "T2"), (3, "T2"))
            ]
            work = svc.describe()["work"]
            samples = parse_prom(svc.render_prom(), require_non_negative=False)
        lookups = [
            (r.stats.prepared_cache_hits, r.stats.prepared_cache_misses)
            for r in results
        ]
        assert lookups == [(1, 0), (0, 1), (1, 0)]
        assert work["prepared_cache_hits"] == 2
        assert work["prepared_cache_misses"] == 1
        assert samples[("kpj_prepared_cache_hits_total", ())] == 2
        assert samples[("kpj_prepared_cache_misses_total", ())] == 1

    def test_worker_cache_counters_sum_its_results(self, service):
        """Over a run, each worker's lifetime cache counters move by
        exactly the lookups counted on the results it answered."""
        queries = [
            BatchQuery(source=source, category=category, k=3)
            for source, category in ((1, "T1"), (2, "T2"), (3, "T3"), (4, "T1"))
        ] + [
            # A destination set no other test asks for: cold everywhere.
            BatchQuery(source=source, destinations=(11, 29, 47), k=2)
            for source in (6, 7)
        ]
        before = [service.ping(w) for w in range(service.workers)]
        results = service.solve(queries)
        for worker, info in enumerate(before):
            after = service.ping(worker)
            assert after["pid"] == info["pid"]
            mine = [r for r in results if _worker_pid(r) == info["pid"]]
            for counter in ("hits", "misses"):
                gained = after["cache"][counter] - info["cache"][counter]
                field = f"prepared_cache_{counter}"
                assert gained == sum(getattr(r.stats, field) for r in mine)
        assert sum(r.stats.prepared_cache_misses for r in results) >= 1

    def test_work_counters_aggregate(self, service, sj_solver):
        dataset, _ = sj_solver
        before = service.stats.as_dict()
        results = service.solve(_query_mix(dataset, 3))
        after = service.stats.as_dict()
        gained = after["lb_tests"] - before["lb_tests"]
        assert gained == sum(r.stats.lb_tests for r in results)

    def test_prometheus_exposition_parses(self, service):
        service.query(BatchQuery(source=2, category="T1", k=2))
        text = service.render_prom()
        samples = parse_prom(text, require_non_negative=False)
        assert samples[("kpj_service_queries_total", ())] >= 1.0
        assert ("kpj_queue_wait_ms_count", ()) in samples

    def test_describe_is_json_ready_status(self, service):
        import json

        status = service.describe()
        json.dumps(status)  # no unserialisable leftovers
        assert status["workers"] == 2
        assert status["max_pending"] == service.max_pending
        assert len(status["segments"]) == 3
        assert status["uptime_s"] >= 0.0
        assert "phases" in status["metrics"]

    def test_query_ids_are_minted(self, service):
        a = service.query(BatchQuery(source=1, category="T1", k=2))
        b = service.query(BatchQuery(source=2, category="T1", k=2))
        assert a.query_id and b.query_id and a.query_id != b.query_id


def _worker_pid(result) -> int:
    """The answering process, read from the ``q-<pid hex>-<seq>`` id."""
    return int(result.query_id.split("-")[1], 16)


class TestBatchIntegration:
    def test_run_batch_engine_service(self, sj_solver):
        """A multi-worker batch is answered by resident service workers,
        identically to sequential solving."""
        import os

        dataset, solver = sj_solver
        queries = _query_mix(dataset, 10)
        sequential = run_batch(solver, queries, workers=1)
        served = run_batch(solver, queries, workers=2)
        assert _fingerprint(served) == _fingerprint(sequential)
        assert {_worker_pid(r) for r in sequential} == {os.getpid()}
        assert os.getpid() not in {_worker_pid(r) for r in served}

    def test_solve_batch_engine_passthrough(self, sj_solver):
        """The solver facade hands every argument to the service-backed
        batch engine, which reports into the solver's observers."""
        from repro.obs.tracing import SpanTracer

        dataset, solver = sj_solver
        queries = _query_mix(dataset, 6)
        sequential = solver.solve_batch(queries)
        before = solver.stats.lb_tests
        metrics, tracer = MetricsRegistry(), SpanTracer()
        with _attached(solver, metrics, tracer):
            served = solver.solve_batch(queries, workers=2)
        assert _fingerprint(served) == _fingerprint(sequential)
        gained = solver.stats.lb_tests - before
        assert gained == sum(r.stats.lb_tests for r in served)
        assert metrics.counters["service_queries"] == len(queries)
        (batch,) = [s for s in tracer.spans if s["name"] == "batch"]
        assert batch["attrs"] == {"queries": len(queries), "workers": 2}

    def test_run_batch_aggregates_service_telemetry(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 8)
        before, metrics = solver.stats.lb_tests, MetricsRegistry()
        with _attached(solver, metrics):
            results = run_batch(solver, queries, workers=2)
        assert len(results) == len(queries)
        gained = solver.stats.lb_tests - before
        assert gained == sum(r.stats.lb_tests for r in results)
        assert metrics.counters["service_queries"] == len(queries)
        assert "warmup" in metrics.phases

    def test_run_batch_failure_keeps_sibling_results(self, sj_solver):
        dataset, solver = sj_solver
        queries = _query_mix(dataset, 4)
        queries.insert(2, BatchQuery(source=0, category="NOPE"))
        before, metrics = solver.stats.lb_tests, MetricsRegistry()
        with _attached(solver, metrics), pytest.raises(QueryError, match="NOPE"):
            run_batch(solver, queries, workers=2)
        # The service drains the whole batch: the siblings queued after
        # the bad query are merged too.
        assert metrics.counters["queries"] == 4
        assert solver.stats.lb_tests > before

    def test_empty_batch(self, sj_solver):
        _, solver = sj_solver
        assert run_batch(solver, [], workers=2) == []


def test_no_segments_leaked_by_this_module():
    """Every service in this file shut down cleanly (leak check)."""
    import os

    # The module fixture is still running; only its segments may live.
    # Count this process's exports only (``SharedCSR.export`` names them
    # ``kpj_<pid hex>_…``): another process's service is not a leak.
    assert len(active_segments(f"kpj_{os.getpid():x}")) <= 3
