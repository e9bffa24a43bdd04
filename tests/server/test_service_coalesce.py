"""Request routing and coalescing in the service tier.

Concurrent identical ``(category, k)`` submissions must pay exactly
one cold dispatch, one prepared-cache miss, on the owning worker —
observable in the ``service_prepares`` / ``service_prepares_coalesced``
counters — while every caller still gets the full, correct answer.
Distinct prepare keys must never coalesce with each other.  A key warm
in several workers spreads over them by load, and the warm set a
worker is tracked with never outgrows its prepared cache.
"""

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.server.service import BatchQuery, QueryService


@pytest.fixture(scope="module")
def sj():
    dataset = road_network("SJ")
    return dataset, KPJSolver(dataset.graph, dataset.categories, landmarks=4)


def _solver(dataset, **kwargs):
    kwargs.setdefault("landmarks", 4)
    return KPJSolver(dataset.graph, dataset.categories, **kwargs)


def _fingerprint(result):
    return tuple((p.nodes, p.length) for p in result.paths)


def test_identical_concurrent_prepares_coalesce(sj):
    dataset, reference = sj
    solver = _solver(dataset)
    with QueryService(solver, workers=1) as service:
        # Hold the worker busy so all N submissions are concurrently
        # pending; they queue behind the sleep on the single driver.
        blocker = service.sleep(0.3, worker=0)
        futures = [
            service.submit(BatchQuery(source=s, category="T2", k=4))
            for s in (1, 5, 9, 13, 17, 21)
        ]
        results = [f.result(timeout=60) for f in futures]
        blocker.result(timeout=60)
        counters = dict(service.metrics.counters)

    # Exactly one cold dispatch; the other five rode the warm entry.
    assert counters["service_prepares"] == 1
    assert counters["service_prepares_coalesced"] == 5
    assert counters["service_queries"] == 6

    # And all six answers are the full correct per-source results.
    for (source, result) in zip((1, 5, 9, 13, 17, 21), results):
        direct = reference.top_k(source, category="T2", k=4)
        assert _fingerprint(result) == _fingerprint(direct), source


def test_distinct_keys_do_not_coalesce(sj):
    dataset, _ = sj
    solver = _solver(dataset)
    with QueryService(solver, workers=1) as service:
        blocker = service.sleep(0.2, worker=0)
        futures = [
            service.submit(BatchQuery(source=s, category=cat, k=3))
            for s, cat in ((1, "T1"), (5, "T1"), (2, "T2"), (6, "T2"))
        ]
        for f in futures:
            assert f.result(timeout=60).paths
        blocker.result(timeout=60)
        counters = dict(service.metrics.counters)

    # One prepare per distinct category, one coalesced hit for each
    # repeat — never cross-key.
    assert counters["service_prepares"] == 2
    assert counters["service_prepares_coalesced"] == 2


def test_destination_set_keys_coalesce_by_set(sj):
    dataset, _ = sj
    solver = _solver(dataset)
    with QueryService(solver, workers=1) as service:
        blocker = service.sleep(0.2, worker=0)
        same = [
            service.submit(
                BatchQuery(source=s, destinations=(9, 17, 25), k=3)
            )
            for s in (1, 4)
        ]
        other = service.submit(
            BatchQuery(source=1, destinations=(9, 17), k=3)
        )
        for f in [*same, other]:
            assert f.result(timeout=60).paths
        blocker.result(timeout=60)
        counters = dict(service.metrics.counters)

    assert counters["service_prepares"] == 2  # the two distinct sets
    assert counters["service_prepares_coalesced"] == 1


def test_destination_order_does_not_split_a_key(sj):
    # The worker's cache keys a destination set sorted and deduplicated;
    # routing must too, or the reordered set lands cold elsewhere.
    dataset, _ = sj
    solver = _solver(dataset)
    nodes = dataset.categories.nodes_of("T2")[:5]
    with QueryService(solver, workers=2) as service:
        for order in (nodes, tuple(reversed(nodes))):
            assert service.query(
                BatchQuery(source=1, destinations=order, k=3)
            ).paths
        counters = dict(service.metrics.counters)
        stats = service.stats
    assert counters["service_prepares"] == 1
    assert counters["service_prepares_coalesced"] == 1
    assert (stats.prepared_cache_hits, stats.prepared_cache_misses) == (1, 1)


def test_prewarmed_key_never_pays_a_prepare(sj):
    dataset, _ = sj
    solver = _solver(dataset)
    with QueryService(solver, workers=1, prewarm=("T1",)) as service:
        for s in (1, 5, 9):
            assert service.query(BatchQuery(source=s, category="T1")).paths
        counters = dict(service.metrics.counters)
    # The prewarm paid the prepare inside the warmup phase; no query
    # was dispatched cold.
    assert counters.get("service_prepares", 0) == 0
    assert counters["service_prepares_coalesced"] == 3


def test_warm_set_is_bounded_by_the_prepared_cache(sj):
    dataset, _ = sj
    solver = _solver(dataset, prepared_cache_size=1)
    with QueryService(solver, workers=1) as service:
        service.query(BatchQuery(source=1, category="T1"))
        service.query(BatchQuery(source=1, category="T2"))  # evicts T1
        service.query(BatchQuery(source=2, category="T1"))  # re-prepares
        counters = dict(service.metrics.counters)
    assert counters["service_prepares"] == 3
    assert counters.get("service_prepares_coalesced", 0) == 0


def test_a_cache_of_size_zero_holds_no_warm_key(sj):
    # With caching off every query rebuilds its entry, so none may be
    # counted as coalesced: not even one for the prewarmed key the
    # worker was forked with.
    dataset, _ = sj
    solver = _solver(dataset, prepared_cache_size=0)
    with QueryService(solver, workers=1, prewarm=("T1",)) as service:
        before = service.ping(0)["cache"]["misses"]
        for source, category in ((1, "T1"), (2, "T1"), (1, "T2"), (2, "T2")):
            service.query(BatchQuery(source=source, category=category, k=3))
        misses = service.ping(0)["cache"]["misses"] - before
        counters = dict(service.metrics.counters)
    assert counters["service_prepares"] == 4
    assert counters.get("service_prepares_coalesced", 0) == 0
    assert misses == 4


def _worker_pid(result) -> int:
    """The answering process, read from the ``q-<pid hex>-<seq>`` id."""
    return int(result.query_id.split("-")[1], 16)


def test_warm_key_burst_spreads_over_workers(sj):
    # A key prewarmed in every worker goes to the least-loaded one;
    # crc32 affinity alone would send the whole burst to one worker.
    dataset, _ = sj
    solver = _solver(dataset)
    with QueryService(solver, workers=2, prewarm=("T1",)) as service:
        # Both workers busy while the burst queues: loads stay 1:1.
        blockers = [service.sleep(0.5, worker=w) for w in (0, 1)]
        futures = [
            service.submit(BatchQuery(source=s, category="T1", k=3))
            for s in range(8)
        ]
        pids = [_worker_pid(f.result(timeout=60)) for f in futures]
        for blocker in blockers:
            blocker.result(timeout=60)
        assert set(pids) == set(service.worker_pids())
        counters = dict(service.metrics.counters)
    assert counters["worker_0_queries"] == counters["worker_1_queries"] == 4


def test_cold_key_burst_on_two_workers_prepares_once(sj):
    # No worker holds the key warm, so every request goes to its crc32
    # worker and the burst still pays exactly one prepare.
    dataset, _ = sj
    solver = _solver(dataset)
    with QueryService(solver, workers=2) as service:
        blockers = [service.sleep(0.2, worker=w) for w in (0, 1)]
        futures = [
            service.submit(BatchQuery(source=s, category="T2", k=4))
            for s in (1, 5, 9, 13, 17, 21)
        ]
        for f in [*futures, *blockers]:
            f.result(timeout=60)
        counters = dict(service.metrics.counters)
    assert counters["service_prepares"] == 1
    assert counters["service_prepares_coalesced"] == 5


def test_coalescing_counters_in_prometheus_output(sj):
    dataset, _ = sj
    solver = _solver(dataset)
    with QueryService(solver, workers=1) as service:
        service.query(BatchQuery(source=1, category="T1"))
        service.query(BatchQuery(source=2, category="T1"))
        text = service.render_prom()
    assert "kpj_service_prepares_total 1" in text
    assert "kpj_service_prepares_coalesced_total 1" in text
