"""One serving clock for every surface.

Regression suite for the latent `run_batch` timing bug: queue-wait
offsets used to be rebased against each batch's own start time, so
two batches (or a batch and the resident service) produced offsets on
*different* timelines and load-test histograms were not comparable
across targets.  Every serving surface now stamps
``QueryResult.timing`` in raw ``perf_counter`` seconds, the clock of
every event in a query's record.
"""

from time import perf_counter, sleep

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.server.service import BatchQuery, QueryService, run_batch


@pytest.fixture(scope="module")
def sj_solver():
    dataset = road_network("SJ")
    return dataset, KPJSolver(dataset.graph, dataset.categories, landmarks=4)


def _queries(dataset, count):
    return [
        BatchQuery(source=(i * 31) % dataset.n, category="T1", k=3)
        for i in range(count)
    ]


class TestBatchOffsetsShareOneTimeline:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_second_batch_continues_the_clock(self, sj_solver, workers):
        """The regression: offsets of a later batch must be strictly
        beyond the earlier batch's, never reset to ~0."""
        dataset, solver = sj_solver
        first = run_batch(solver, _queries(dataset, 4), workers=workers)
        sleep(0.02)
        second = run_batch(solver, _queries(dataset, 4), workers=workers)
        latest_first = max(r.timing["enqueued_at_s"] for r in first)
        earliest_second = min(r.timing["enqueued_at_s"] for r in second)
        assert earliest_second > latest_first

    def test_offsets_are_epoch_relative(self, sj_solver):
        dataset, solver = sj_solver
        before = perf_counter()
        results = run_batch(solver, _queries(dataset, 3), workers=1)
        after = perf_counter()
        for r in results:
            assert before <= r.timing["enqueued_at_s"] <= after
            assert before <= r.timing["started_at_s"] <= after

    def test_pool_and_service_offsets_are_comparable(self, sj_solver):
        """Cross-target comparability: a pool batch and a service
        query interleaved in time must carry interleaved stamps."""
        dataset, solver = sj_solver
        pooled = run_batch(solver, _queries(dataset, 3), workers=2)
        with QueryService(solver, workers=1) as service:
            served = service.query(BatchQuery(source=1, category="T1", k=3))
        pooled_latest = max(r.timing["started_at_s"] for r in pooled)
        assert served.timing["enqueued_at_s"] > pooled_latest
