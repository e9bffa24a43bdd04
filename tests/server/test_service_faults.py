"""Fault-injection suite for the resident-worker service.

Each failure mode is pinned to its exact user-visible error message
and its telemetry counter, so a behaviour change here is a deliberate
API change, not an accident:

* worker SIGKILL'd mid-query -> clean ``QueryError``, pool respawns
  the worker with the shared-memory state intact, later queries work;
* deadline exceeded -> ``DeadlineExceeded`` (a ``QueryError``
  subclass) + ``service_deadline_exceeded``;
* admission-queue overflow -> ``QueryError`` +
  ``service_rejected_overload``;
* shutdown -> zero shared-memory segments left behind;
* a fork that fails during start -> the start undoes itself, and a
  multi-worker batch leaves the solver as it found it;
* many submitting threads, a foreign-thread ping and a worker killed
  under load -> every answer is the sequential one or ``WorkerDied``,
  none is lost, and the loop thread is the service's only thread.

Run it under ``python -X dev`` too: asyncio's debug mode then raises
if a loop method is ever called from a thread other than the loop's.
"""

import asyncio
import errno
import os
import pickle
import signal
import sys
import threading
import time
from multiprocessing.context import ForkProcess
from time import perf_counter

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.exceptions import QueryError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer
from repro.server.service import (
    BatchQuery,
    DeadlineExceeded,
    QueryService,
    WorkerDied,
    _serve_query,
)
from repro.server import shared as shared_mod
from repro.server.shared import active_segments


@pytest.fixture(scope="module")
def sj():
    dataset = road_network("SJ")
    return dataset, KPJSolver(dataset.graph, dataset.categories, landmarks=4)


@pytest.fixture()
def service(sj):
    _, solver = sj
    svc = QueryService(solver, workers=1, prewarm=("T1",))
    svc.start()
    yield svc
    svc.shutdown()


def _query(source=3, category="T1", k=3):
    return BatchQuery(source=source, category=category, k=k)


class TestWorkerDeath:
    def test_kill_mid_query_is_clean_error_and_respawn(self, service):
        (old_pid,) = service.worker_pids()
        segments_before = service.shared_segments()

        # Occupy the worker, then kill it while the op is in flight.
        inflight = service.sleep(1.0, worker=0)
        time.sleep(0.1)  # let the sleep op reach the worker
        os.kill(old_pid, signal.SIGKILL)

        with pytest.raises(
            QueryError,
            match=rf"resident worker 0 \(pid {old_pid}\) died mid-query; "
            rf"respawned",
        ):
            inflight.result(timeout=30)
        assert service.metrics.counters["service_worker_deaths"] == 1

        # The pool respawned a fresh process...
        (new_pid,) = service.worker_pids()
        assert new_pid != old_pid

        # ...which maps the *same* shared segments (nothing was
        # re-exported) and still holds the prewarmed category.
        info = service.ping(0)
        assert info["pid"] == new_pid
        assert info["segments"] == list(segments_before)
        assert info["csr_readonly"] is True
        assert service.shared_segments() == segments_before

        # And the service keeps answering correctly.
        _, solver = road_network("SJ"), service.solver
        result = service.query(_query())
        direct = solver.top_k(3, category="T1", k=3)
        assert [p.nodes for p in result.paths] == [
            p.nodes for p in direct.paths
        ]

    def test_queries_queued_behind_the_death_still_run(self, service):
        (old_pid,) = service.worker_pids()
        inflight = service.sleep(1.0, worker=0)
        queued = [service.submit(_query(source=s)) for s in (1, 5)]
        time.sleep(0.1)
        os.kill(old_pid, signal.SIGKILL)
        with pytest.raises(QueryError, match="died mid-query"):
            inflight.result(timeout=30)
        # Only the in-flight op fails; queued work lands on the
        # respawned worker.
        for future in queued:
            assert future.result(timeout=30).paths


class TestDeadlines:
    def test_queued_past_deadline_is_rejected_before_dispatch(self, service):
        service.sleep(0.4, worker=0)  # occupy the only worker
        doomed = service.submit(_query(), timeout_s=0.05)
        with pytest.raises(
            DeadlineExceeded,
            match=r"^deadline exceeded before dispatch: queued "
            r"\d+\.\d ms against a 50\.0 ms budget$",
        ):
            doomed.result(timeout=30)
        assert service.metrics.counters["service_deadline_exceeded"] == 1

    def test_worker_side_boundary_check_is_pinned(self, sj):
        # The in-worker half, exercised directly: a deadline that
        # lapses after dispatch is caught at the next phase boundary.
        _, solver = sj
        with pytest.raises(
            DeadlineExceeded,
            match=r"^deadline exceeded at the prepare phase boundary "
            r"\(\d+\.\d ms past budget\)$",
        ):
            _serve_query(solver, _query(), deadline=perf_counter() - 0.01)

    def test_deadline_error_is_a_picklable_query_error(self):
        # It crosses the worker pipe, so it must survive pickling and
        # still be catchable as the public QueryError.
        exc = DeadlineExceeded("deadline exceeded at the search phase boundary")
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, QueryError)
        assert str(clone) == str(exc)

    def test_default_timeout_applies_to_every_query(self, sj):
        _, solver = sj
        with QueryService(
            solver, workers=1, default_timeout_s=0.02
        ) as svc:
            svc.sleep(0.3, worker=0)
            with pytest.raises(DeadlineExceeded):
                svc.query(_query())
            assert svc.metrics.counters["service_deadline_exceeded"] == 1

    def test_generous_deadline_does_not_fire(self, service):
        result = service.query(_query(), timeout_s=30.0)
        assert result.paths
        assert (
            service.metrics.counters.get("service_deadline_exceeded", 0) == 0
        )


class TestOverflow:
    def test_admission_bound_sheds_with_pinned_error(self, sj):
        _, solver = sj
        with QueryService(solver, workers=1, max_pending=2) as svc:
            svc.sleep(0.4, worker=0)  # occupies one pending slot
            accepted = svc.submit(_query())
            with pytest.raises(
                QueryError,
                match=r"^service overloaded: 2 queries pending "
                r"\(max_pending=2\)$",
            ):
                svc.query(_query(source=7))
            assert svc.metrics.counters["service_rejected_overload"] == 1
            # The shed request cost nothing; admitted work completes.
            assert accepted.result(timeout=30).paths

    def test_slots_free_up_as_queries_finish(self, sj):
        _, solver = sj
        with QueryService(solver, workers=1, max_pending=1) as svc:
            svc.query(_query())  # fills and frees the single slot
            assert svc.query(_query(source=9)).paths
            assert (
                svc.metrics.counters.get("service_rejected_overload", 0) == 0
            )


class TestShutdownHygiene:
    def test_no_segments_survive_shutdown(self, sj):
        _, solver = sj
        svc = QueryService(solver, workers=2)
        svc.start()
        segments = svc.shared_segments()
        pids = svc.worker_pids()
        assert set(segments) <= set(active_segments())
        svc.shutdown()
        assert not set(segments) & set(active_segments())
        # Workers are gone too.
        deadline = time.time() + 10
        while time.time() < deadline:
            alive = [pid for pid in pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive

    def test_no_segments_survive_a_crashed_worker_either(self, sj):
        _, solver = sj
        svc = QueryService(solver, workers=1)
        svc.start()
        segments = svc.shared_segments()
        inflight = svc.sleep(0.5, worker=0)
        time.sleep(0.1)
        os.kill(svc.worker_pids()[0], signal.SIGKILL)
        with pytest.raises(QueryError, match="died mid-query"):
            inflight.result(timeout=30)
        svc.shutdown()
        assert not set(segments) & set(active_segments())


class TestStress:
    THREADS = 4
    PER_THREAD = 50
    TIMEOUT_S = 120

    def test_threads_ping_and_a_kill_lose_nothing(self, sj):
        # Three workers (more than a 2-core CI runner has cores), fed
        # from four threads with a short switch interval, while a
        # foreign thread pings and one worker is SIGKILLed.
        _, solver = sj
        categories = ("T1", "T2", "T3")
        batches = [
            [
                _query(source=(t * 131 + i * 17) % 500,
                       category=categories[(t + i) % 3], k=2 + (i % 4))
                for i in range(self.PER_THREAD)
            ]
            for t in range(self.THREADS)
        ]
        expected = {
            q: [(p.nodes, p.length) for p in solver.top_k(
                q.source, category=q.category, k=q.k).paths]
            for batch in batches for q in batch
        }
        svc = QueryService(
            solver, workers=3, max_pending=512, prewarm=categories
        )
        svc.start()
        segments = svc.shared_segments()
        futures: list = [[] for _ in range(self.THREADS)]
        pinged: dict = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def submit(t):
                for q in batches[t]:
                    futures[t].append((q, svc.submit(q)))

            def ping():
                pinged.update(svc.ping(2))

            threads = [
                threading.Thread(target=submit, args=(t,), name=f"submit-{t}")
                for t in range(self.THREADS)
            ] + [threading.Thread(target=ping, name="pinger")]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + self.TIMEOUT_S
            while sum(map(len, futures)) < 40 and time.monotonic() < deadline:
                time.sleep(0.001)
            os.kill(svc.worker_pids()[1], signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=self.TIMEOUT_S)
                assert not thread.is_alive(), thread.name
            served = failed = 0
            for q, future in (pair for per in futures for pair in per):
                try:
                    result = future.result(timeout=self.TIMEOUT_S)
                except WorkerDied:
                    failed += 1
                    continue
                assert [(p.nodes, p.length) for p in result.paths] == expected[q]
                served += 1
            names = [t.name for t in threading.enumerate()]
            counters = dict(svc.metrics.counters)
        finally:
            sys.setswitchinterval(interval)
            svc.shutdown()
        submitted = self.THREADS * self.PER_THREAD
        assert served + failed == submitted
        assert counters["service_queries"] + failed == submitted
        assert counters.get("service_worker_deaths", 0) == failed <= 1
        assert pinged["worker"] == 2 and pinged["csr_readonly"] is True
        assert [n for n in names if n.startswith("kpj-service")] == [
            "kpj-service-loop"
        ]
        assert not [n for n in names if "ThreadPoolExecutor" in n]
        assert not set(segments) & set(active_segments())


def _fail_second_fork(monkeypatch) -> list:
    """Let the first worker fork, make the second raise ``EAGAIN``.

    Returns the list of processes whose start was attempted."""
    original = ForkProcess.start
    attempted: list = []

    def start(process):
        attempted.append(process)
        if len(attempted) > 1:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        original(process)

    monkeypatch.setattr(ForkProcess, "start", start)
    return attempted


def _solver_state(solver) -> tuple:
    return (
        solver.graph.csr_cache, solver.metrics, solver.tracer,
        len(shared_mod._EXPORTED),
    )


def _own_segments() -> set:
    """This process's live segments (``SharedCSR.export`` names them
    ``kpj_<pid hex>_…``); another process's service is not a leak."""
    return set(active_segments(f"kpj_{os.getpid():x}"))


def _assert_restored(solver, state, segments) -> None:
    """Same csr_cache, metrics and tracer; no segment left in /dev/shm
    and no export left mapped in this process."""
    now = _solver_state(solver)
    assert all(a is b for a, b in zip(now[:3], state[:3]))
    assert now[3] == state[3]
    assert _own_segments() <= segments


class TestStartFailure:
    @pytest.mark.parametrize("lifecycle", ["start", "start_async"])
    def test_failed_fork_undoes_the_start(self, sj, monkeypatch, lifecycle):
        _, solver = sj
        state, segments = _solver_state(solver), _own_segments()
        attempted = _fail_second_fork(monkeypatch)
        svc = QueryService(solver, workers=2, prewarm=("T1",))
        with pytest.raises(OSError, match="temporarily unavailable"):
            if lifecycle == "start":
                svc.start()
            else:
                asyncio.run(svc.start_async())
        _assert_restored(solver, state, segments)
        assert len(attempted) == 2
        assert not attempted[0].is_alive()  # the forked worker is retired
        with pytest.raises(QueryError, match="not running"):
            svc.query(_query())


class TestBatchHygiene:
    """Every multi-worker batch leaves no ``kpj_*`` segment behind and
    hands back the solver's ``csr_cache``, ``metrics`` and ``tracer``
    as it found them."""

    def _batch(self, solver, category="T1"):
        saved = solver.metrics, solver.tracer
        metrics, tracer = MetricsRegistry(), SpanTracer()
        solver.metrics, solver.tracer = metrics, tracer
        try:
            return solver.solve_batch(
                [_query(source=1), _query(source=5, category=category)],
                workers=2,
            )
        finally:
            left = solver.metrics, solver.tracer
            solver.metrics, solver.tracer = saved
            # The batch reports into the observers it found and leaves
            # them attached.
            assert left[0] is metrics and left[1] is tracer

    def test_batch_that_succeeds(self, sj):
        _, solver = sj
        state, segments = _solver_state(solver), _own_segments()
        assert len(self._batch(solver)) == 2
        _assert_restored(solver, state, segments)

    def test_batch_that_raises(self, sj):
        _, solver = sj
        state, segments = _solver_state(solver), _own_segments()
        with pytest.raises(QueryError, match="NOPE"):
            self._batch(solver, category="NOPE")
        _assert_restored(solver, state, segments)

    def test_batch_whose_service_fails_to_start(self, sj, monkeypatch):
        _, solver = sj
        state, segments = _solver_state(solver), _own_segments()
        _fail_second_fork(monkeypatch)
        with pytest.raises(OSError, match="temporarily unavailable"):
            self._batch(solver)
        _assert_restored(solver, state, segments)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other owner
        return True
    return True
