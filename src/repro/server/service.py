"""Long-lived query service: resident workers over shared-memory CSR.

The fork-per-batch pool (:mod:`repro.server.pool`) re-pays warm-up —
landmark residency, prepared-category construction —
on every batch, because nothing survives between pools.
:class:`QueryService` inverts that: worker processes are spawned
**once**, hold the CSR graph arrays in
:mod:`multiprocessing.shared_memory` segments (one physical copy for
the whole pool, mapped read-only — see :mod:`repro.server.shared`),
and keep a process-local :class:`~repro.core.kpj.PreparedCategory` LRU
warm across requests, so steady-state queries pay only their own
search.

Front-end structure (asyncio, one driver task per worker):

* **admission** — a bounded pending set; a submission that would
  exceed ``max_pending`` is shed immediately with a clean
  :class:`~repro.exceptions.QueryError` (counter
  ``service_rejected_overload``) instead of queueing without bound;
* **deadlines** — an admitted query carries an absolute deadline;
  cancellation is cooperative, checked at phase boundaries: before
  dispatch in the parent, and before the ``prepare`` and ``search``
  phases inside the worker (:class:`DeadlineExceeded`, counter
  ``service_deadline_exceeded``).  A search that has already started
  runs to completion — its result is returned, late;
* **coalescing** — requests route to workers by destination-set
  affinity (stable hash), and each driver tracks which prepare keys
  its worker holds warm: concurrent identical ``(category, k)``
  requests trigger exactly **one** explicit prepare op (counter
  ``service_prepares``); the rest ride the warm entry (counter
  ``service_prepares_coalesced``);
* **fault recovery** — a worker that dies mid-query fails that query
  with a clean :class:`~repro.exceptions.QueryError` (counter
  ``service_worker_deaths``) and is respawned by re-forking the
  parent, which still maps the same shared segments — the replacement
  inherits the graph state without re-exporting anything.

Telemetry is the stack every other surface already uses: a
:class:`~repro.obs.metrics.MetricsRegistry` holding the service
counters, log-spaced ``queue_wait_ms``/``service_ms`` histograms, the
one-time ``warmup`` phase, and the merge of every per-query snapshot
(§3g work counters included); Prometheus exposition via
:meth:`QueryService.render_prom`; per-query ids minted fork-safely by
the workers (:func:`repro.obs.log.new_query_id`).  ``QueryResult``
timing offsets are rebased onto the process-wide
:func:`~repro.server.epoch.service_epoch`, so histograms are
comparable across the pool and service targets.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from numbers import Real
from time import perf_counter, sleep as _sleep
from typing import Sequence

from repro.core.stats import SearchStats
from repro.exceptions import QueryError
from repro.obs.metrics import LOADTEST_LATENCY_BUCKETS_MS, MetricsRegistry
from repro.server.epoch import service_epoch
from repro.server.pool import BatchQuery, _coerce, _execute
from repro.server.shared import SharedCSR

__all__ = ["DeadlineExceeded", "QueryService", "run_service_batch"]


class DeadlineExceeded(QueryError):
    """A query's deadline lapsed at a cooperative cancellation point."""


#: Solver and shared-CSR handle inherited by forked workers.  Set only
#: around :meth:`QueryService._spawn`; ``None`` otherwise.
_SERVICE_SOLVER = None
_SERVICE_SHARED = None


def _check_deadline(deadline: float | None, boundary: str) -> None:
    """Cooperative cancellation point: raise if the deadline lapsed."""
    if deadline is None:
        return
    now = perf_counter()
    if now > deadline:
        raise DeadlineExceeded(
            f"deadline exceeded at the {boundary} phase boundary "
            f"({(now - deadline) * 1e3:.1f} ms past budget)"
        )


def _serve_query(solver, query: BatchQuery, deadline: float | None):
    """Worker body for one query, with phase-boundary deadline checks.

    The explicit :meth:`~repro.core.kpj.KPJSolver.prepare` both makes
    the prepare/search boundary a real cancellation point and
    guarantees the query's own internal prepare is a cache hit — the
    steady-state the service exists to provide.
    """
    started = perf_counter()
    _check_deadline(deadline, "prepare")
    solver.prepare(category=query.category, destinations=query.destinations)
    _check_deadline(deadline, "search")
    result = _execute(solver, query)
    result.timing = {"started_at_s": started}
    return result


def _worker_main(conn, index: int) -> None:
    """Resident worker loop: serve ops off the pipe until shutdown.

    Runs in a forked child; the solver (graph, landmark index, warm
    prepared cache) and the shared-CSR handle arrive via fork
    inheritance, so nothing heavy ever crosses the pipe — only
    :class:`BatchQuery` requests and ``QueryResult`` responses.
    """
    solver = _SERVICE_SOLVER
    shared = _SERVICE_SHARED
    conn.send(("ready", {"pid": os.getpid(), "worker": index}))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        if op == "shutdown":
            conn.send(("ok", None))
            break
        try:
            if op == "query":
                _, query, deadline = msg
                out = _serve_query(solver, query, deadline)
            elif op == "prepare":
                _, category, destinations = msg
                prepared = solver.prepare(
                    category=category, destinations=destinations
                )
                prepared.csr_overlay()
                out = solver.cache_info()
            elif op == "sleep":
                # Fault-injection/test helper: hold the worker busy.
                _sleep(msg[1])
                out = msg[1]
            elif op == "ping":
                csr = solver.graph.csr_cache
                out = {
                    "pid": os.getpid(),
                    "worker": index,
                    "segments": list(shared.segment_names) if shared else [],
                    "csr_readonly": bool(
                        csr is not None and not csr.indptr.flags.writeable
                    ),
                    "cache": solver.cache_info(),
                }
            else:
                raise QueryError(f"unknown service op {op!r}")
        except Exception as exc:
            try:
                conn.send(("err", exc))
            except Exception:
                conn.send(("err", QueryError(str(exc))))
        else:
            conn.send(("ok", out))


class _WorkerDied(Exception):
    """Internal: the pipe peer vanished mid-roundtrip."""

    def __init__(self, pid):
        super().__init__(f"worker pid {pid} died")
        self.pid = pid


@dataclass
class _Resident:
    """Parent-side handle for one resident worker process."""

    index: int
    process: multiprocessing.Process
    conn: object
    #: Prepare keys this worker holds warm (LRU order, parent's view).
    warm: OrderedDict = field(default_factory=OrderedDict)
    #: Serialises pipe roundtrips — the driver already sends one
    #: request at a time, but :meth:`QueryService.ping` may call from
    #: another thread and must not interleave messages.
    lock: threading.Lock = field(default_factory=threading.Lock)

    def call(self, message):
        """Blocking request/response roundtrip (runs in an executor
        thread).  Watches the process sentinel alongside the pipe so a
        SIGKILL'd worker surfaces as :class:`_WorkerDied` instead of a
        hang."""
        with self.lock:
            return self._call(message)

    def _call(self, message):
        try:
            self.conn.send(message)
            while True:
                ready = connection_wait([self.conn, self.process.sentinel])
                if self.conn in ready:
                    try:
                        return self.conn.recv()
                    except (EOFError, OSError):
                        raise _WorkerDied(self.process.pid) from None
                if self.process.sentinel in ready and not self.conn.poll():
                    raise _WorkerDied(self.process.pid)
        except (BrokenPipeError, OSError):
            raise _WorkerDied(self.process.pid) from None


@dataclass
class _Request:
    """One admitted unit of work queued for a driver."""

    op: str  # "query" | "sleep"
    query: BatchQuery | None
    key: tuple | None
    deadline: float | None
    enqueued: float
    future: asyncio.Future
    payload: float = 0.0  # sleep seconds


class QueryService:
    """The resident-worker serving tier.  See the module docstring.

    Two lifecycles:

    * ``start()`` / ``shutdown()`` — the service owns a background
      event-loop thread; ``submit``/``query``/``solve`` are plain
      synchronous calls usable from any thread (this is what
      ``run_batch(engine="service")`` and the load-test replay use);
    * ``await start_async()`` / ``await astop()`` — the service joins
      the caller's running loop; ``await asubmit(...)`` serves
      requests (this is what ``kpj serve``'s HTTP front-end uses).

    Parameters
    ----------
    solver:
        A fully built :class:`~repro.core.kpj.KPJSolver`.  Its frozen
        graph's CSR cache is moved into shared memory at start; if it
        has no :class:`MetricsRegistry`, one is installed (before the
        fork) so per-query snapshots exist for the service telemetry.
    workers:
        Resident processes to fork.
    max_pending:
        Admission bound: submissions beyond this many in-flight
        queries are shed with a ``QueryError``.
    default_timeout_s:
        Deadline applied to queries submitted without an explicit
        ``timeout_s``; ``None`` means no deadline.
    prewarm:
        Category names (or ``(category, destinations)`` pairs) whose
        prepared state is built in the parent before forking, so every
        worker starts warm and the cost lands in the one-time
        ``warmup`` phase.
    """

    def __init__(
        self,
        solver,
        workers: int = 2,
        max_pending: int = 64,
        default_timeout_s: float | None = None,
        prewarm: Sequence = (),
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise QueryError(f"service needs at least one worker, got {workers}")
        if max_pending < 1:
            raise QueryError(f"max_pending must be >= 1, got {max_pending}")
        self.solver = solver
        self.workers = int(workers)
        self.max_pending = int(max_pending)
        self.default_timeout_s = default_timeout_s
        self.prewarm = tuple(prewarm)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = SearchStats()
        self._shared: SharedCSR | None = None
        self._saved_csr = None
        self._residents: list[_Resident] = []
        self._queues: list[asyncio.Queue] = []
        self._drivers: list[asyncio.Task] = []
        self._prewarmed: set[tuple] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._own_metrics = False
        self._pending = 0
        self._started = False
        self._closed = False
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        """Spawn workers and the background event loop; blocks until
        every worker has completed its ready handshake."""
        self._prepare_start()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="kpj-service-loop", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self._start_drivers(), self._loop
        ).result(timeout=60)
        self._started = True
        return self

    async def start_async(self) -> "QueryService":
        """Like :meth:`start`, joining the caller's running loop."""
        self._prepare_start()
        self._loop = asyncio.get_running_loop()
        await self._start_drivers()
        self._started = True
        return self

    def _prepare_start(self) -> None:
        if self._started or self._closed:
            raise QueryError("service already started")
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            raise QueryError(
                "the resident-worker service needs the fork start method; "
                "use run_batch(engine='pool') on this platform"
            ) from None
        service_epoch()  # pin the timing origin before anything enqueues
        t0 = perf_counter()
        self._warmup()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers + 2, thread_name_prefix="kpj-service"
        )
        for index in range(self.workers):
            self._residents.append(self._spawn(ctx, index))
        # One-time cost — shared-memory export, prewarm, forks —
        # lands under the same ``warmup`` phase the batch pool uses,
        # so "paid once at startup" is visible in the exposition.
        self.metrics.observe_phase("warmup", perf_counter() - t0)
        self._started_at = perf_counter()

    def _warmup(self) -> None:
        solver = self.solver
        if solver.metrics is None:
            # Installed before the fork so workers produce per-query
            # snapshots; removed again at shutdown.
            solver.metrics = MetricsRegistry()
            self._own_metrics = True
        from repro.graph.csr import shared_csr

        # Export the in-process CSR into shared segments and point the
        # graph's cache at the shared views so every structure built
        # from here on (overlays, landmark residency, worker forks)
        # references shared pages.  The pre-service cache is restored
        # at teardown so the solver leaves the service as it entered.
        plain = shared_csr(solver.graph)
        self._shared = SharedCSR.export(plain)
        self._saved_csr = plain
        solver.graph.csr_cache = self._shared.graph
        for item in self.prewarm:
            category, destinations = (
                (item, None) if isinstance(item, str) else item
            )
            try:
                prepared = solver.prepare(
                    category=category, destinations=destinations
                )
                prepared.csr_overlay()
            except QueryError:
                continue
            self._prewarmed.add(self._prepare_key(category, destinations))

    def _spawn(self, ctx, index: int) -> _Resident:
        global _SERVICE_SOLVER, _SERVICE_SHARED
        parent_conn, child_conn = ctx.Pipe()
        _SERVICE_SOLVER = self.solver
        _SERVICE_SHARED = self._shared
        try:
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, index),
                name=f"kpj-service-worker-{index}",
                daemon=True,
            )
            process.start()
        finally:
            _SERVICE_SOLVER = None
            _SERVICE_SHARED = None
        child_conn.close()
        if not parent_conn.poll(60):
            process.terminate()
            raise QueryError(f"resident worker {index} failed to start")
        tag, _info = parent_conn.recv()
        if tag != "ready":  # pragma: no cover - protocol violation
            process.terminate()
            raise QueryError(f"resident worker {index} bad handshake: {tag!r}")
        warm = OrderedDict((key, None) for key in sorted(self._prewarmed))
        return _Resident(index=index, process=process, conn=parent_conn, warm=warm)

    async def _start_drivers(self) -> None:
        self._queues = [asyncio.Queue() for _ in range(self.workers)]
        self._drivers = [
            asyncio.ensure_future(self._drive(index))
            for index in range(self.workers)
        ]

    def shutdown(self) -> None:
        """Stop drivers, retire workers, unlink shared memory.

        Idempotent.  With an owned background loop the loop thread is
        stopped and joined; with an external loop (``start_async``)
        use :meth:`astop` instead.
        """
        if self._closed:
            return
        if self._loop is not None and self._thread is not None:
            try:
                asyncio.run_coroutine_threadsafe(
                    self.astop(), self._loop
                ).result(timeout=60)
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=30)
                self._loop.close()
                self._loop = None
                self._thread = None
        else:
            self._teardown()

    async def astop(self) -> None:
        """Async half of :meth:`shutdown` (for external loops)."""
        if self._closed:
            return
        self._closed = True
        for queue in self._queues:
            queue.put_nowait(None)
        if self._drivers:
            await asyncio.gather(*self._drivers, return_exceptions=True)
        self._teardown()

    def _teardown(self) -> None:
        self._closed = True
        for resident in self._residents:
            try:
                resident.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
            resident.process.join(timeout=5)
            if resident.process.is_alive():  # pragma: no cover - stuck worker
                resident.process.terminate()
                resident.process.join(timeout=5)
            try:
                resident.conn.close()
            except OSError:
                pass
        self._residents = []
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._shared is not None:
            self._shared.unlink()
            self.solver.graph.csr_cache = self._saved_csr
        if self._own_metrics:
            self.solver.metrics = None
            self._own_metrics = False

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def asubmit(self, query, timeout_s: float | None = None):
        """Admit one query and await its :class:`QueryResult`.

        Raises ``QueryError`` straight from admission when the pending
        bound is hit; deadline/worker failures surface when awaited.
        """
        request = self._admit(_coerce(query), "query", timeout_s)
        return await request.future

    def submit(self, query, timeout_s: float | None = None):
        """Thread-safe submission; returns a ``concurrent.futures``
        future resolving to the :class:`QueryResult`."""
        return self._submit_threadsafe(_coerce(query), "query", timeout_s)

    def query(self, query, timeout_s: float | None = None):
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(query, timeout_s=timeout_s).result()

    def solve(self, queries: Sequence, timeout_s: float | None = None) -> list:
        """Submit a batch and return results in submission order."""
        futures = [self.submit(q, timeout_s=timeout_s) for q in queries]
        return [f.result() for f in futures]

    def sleep(self, seconds: float, worker: int = 0):
        """Test/fault-injection helper: occupy ``worker`` for
        ``seconds``; returns a future."""
        request = BatchQuery(source=0)
        return self._submit_threadsafe(
            request, "sleep", None, payload=float(seconds), route=worker
        )

    def _submit_threadsafe(self, query, op, timeout_s, payload=0.0, route=None):
        if self._loop is None or not self._started:
            raise QueryError("service is not running (call start() first)")

        async def _run():
            request = self._admit(query, op, timeout_s, payload, route)
            return await request.future

        return asyncio.run_coroutine_threadsafe(_run(), self._loop)

    def _admit(
        self, query, op, timeout_s, payload=0.0, route=None
    ) -> _Request:
        """Admission control; loop-thread only.  Raises on overflow."""
        if self._closed or not self._started:
            raise QueryError("service is not running (call start() first)")
        if timeout_s is not None and (
            not isinstance(timeout_s, Real)
            or isinstance(timeout_s, bool)
            or not timeout_s >= 0
        ):
            raise QueryError(
                f"timeout_s must be a non-negative number, got {timeout_s!r}"
            )
        if self._pending >= self.max_pending:
            self.metrics.inc("service_rejected_overload")
            raise QueryError(
                f"service overloaded: {self._pending} queries pending "
                f"(max_pending={self.max_pending})"
            )
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        enqueued = perf_counter()
        request = _Request(
            op=op,
            query=query if op == "query" else None,
            key=self._query_key(query) if op == "query" else None,
            deadline=enqueued + timeout_s if timeout_s is not None else None,
            enqueued=enqueued,
            future=asyncio.get_running_loop().create_future(),
            payload=payload,
        )
        self._pending += 1
        index = self._route(query) if route is None else route % self.workers
        self._queues[index].put_nowait(request)
        return request

    @staticmethod
    def _prepare_key(category, destinations) -> tuple:
        if category is not None:
            return ("category", category)
        return ("destinations", tuple(destinations or ()))

    def _query_key(self, query: BatchQuery) -> tuple:
        return self._prepare_key(query.category, query.destinations)

    def _route(self, query: BatchQuery) -> int:
        """Destination-set affinity: identical prepare keys always land
        on the same worker, which is what makes coalescing local state.
        ``crc32`` (not ``hash``) so routing is stable across runs."""
        basis = repr(self._query_key(query)).encode()
        return zlib.crc32(basis) % self.workers

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    async def _drive(self, index: int) -> None:
        queue = self._queues[index]
        while True:
            request = await queue.get()
            if request is None:
                break
            try:
                result = await self._dispatch(index, request)
            except Exception as exc:
                if not request.future.cancelled():
                    request.future.set_exception(exc)
            else:
                if not request.future.cancelled():
                    request.future.set_result(result)
            finally:
                self._pending -= 1

    async def _dispatch(self, index: int, request: _Request):
        resident = self._residents[index]
        if request.deadline is not None:
            now = perf_counter()
            if now > request.deadline:
                self.metrics.inc("service_deadline_exceeded")
                raise DeadlineExceeded(
                    f"deadline exceeded before dispatch: queued "
                    f"{(now - request.enqueued) * 1e3:.1f} ms against a "
                    f"{(request.deadline - request.enqueued) * 1e3:.1f} ms "
                    f"budget"
                )
        if request.op == "sleep":
            await self._roundtrip(resident, ("sleep", request.payload))
            return None
        query = request.query
        if request.key in resident.warm:
            resident.warm.move_to_end(request.key)
            self.metrics.inc("service_prepares_coalesced")
        else:
            self.metrics.inc("service_prepares")
            await self._roundtrip(
                resident, ("prepare", query.category, query.destinations)
            )
            resident.warm[request.key] = None
            bound = max(1, self.solver.prepared_cache_size)
            while len(resident.warm) > bound:
                resident.warm.popitem(last=False)
        result = await self._roundtrip(
            resident, ("query", query, request.deadline)
        )
        epoch = service_epoch()
        timing = dict(result.timing or {})
        started = timing.get("started_at_s", request.enqueued)
        queue_wait = max(0.0, started - request.enqueued)
        result.timing = {
            "enqueued_at_s": request.enqueued - epoch,
            "started_at_s": started - epoch,
            "queue_wait_s": queue_wait,
        }
        self.metrics.inc("service_queries")
        self.metrics.observe(
            "queue_wait_ms",
            queue_wait * 1e3,
            buckets=LOADTEST_LATENCY_BUCKETS_MS,
        )
        self.metrics.observe(
            "service_ms", result.elapsed_ms, buckets=LOADTEST_LATENCY_BUCKETS_MS
        )
        self.stats.merge(result.stats)
        if result.metrics is not None:
            self.metrics.merge(result.metrics)
        return result

    async def _roundtrip(self, resident: _Resident, message):
        loop = asyncio.get_running_loop()
        try:
            tag, payload = await loop.run_in_executor(
                self._executor, resident.call, message
            )
        except _WorkerDied as died:
            self.metrics.inc("service_worker_deaths")
            await loop.run_in_executor(
                self._executor, self._respawn, resident.index
            )
            raise QueryError(
                f"resident worker {resident.index} (pid {died.pid}) died "
                f"mid-query; respawned"
            ) from None
        if tag == "err":
            if isinstance(payload, DeadlineExceeded):
                self.metrics.inc("service_deadline_exceeded")
            raise payload
        return payload

    def _respawn(self, index: int) -> None:
        """Replace a dead worker; the fresh fork maps the same shared
        segments (the parent never dropped them)."""
        old = self._residents[index]
        try:
            old.conn.close()
        except OSError:
            pass
        old.process.join(timeout=5)
        ctx = multiprocessing.get_context("fork")
        self._residents[index] = self._spawn(ctx, index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Queries admitted but not yet resolved."""
        return self._pending

    def worker_pids(self) -> list[int]:
        """Current resident pids, by worker index."""
        return [r.process.pid for r in self._residents]

    def ping(self, worker: int = 0) -> dict:
        """Worker introspection roundtrip (pid, segment names, cache)."""
        resident = self._residents[worker]
        tag, payload = resident.call(("ping",))
        if tag == "err":
            raise payload
        return payload

    def shared_segments(self) -> tuple[str, ...]:
        """Names of the shared-memory segments backing the CSR."""
        return self._shared.segment_names if self._shared is not None else ()

    def render_prom(self, prefix: str = "kpj") -> str:
        """Prometheus exposition of the service registry."""
        return self.metrics.render_prom(prefix=prefix)

    def describe(self) -> dict:
        """JSON-ready service status (the ``/status`` endpoint body)."""
        return {
            "workers": self.workers,
            "worker_pids": self.worker_pids(),
            "pending": self._pending,
            "max_pending": self.max_pending,
            "uptime_s": (
                perf_counter() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
            "segments": list(self.shared_segments()),
            "kernel": getattr(self.solver, "kernel", None),
            "metrics": self.metrics.report(),
            "work": self.stats.as_dict(),
        }


def run_service_batch(
    solver,
    queries: Sequence,
    workers: int = 1,
    stats=None,
    metrics=None,
    tracer=None,
    service: QueryService | None = None,
) -> list:
    """`run_batch` semantics over the service tier.

    Either routes through an already-running ``service`` or spins a
    private one for the call.  Results come back in submission order;
    a failed query fails the batch with its original exception, but
    only after the successful results' stats/metrics snapshots are
    merged — the same contract as the pool path.
    """
    batch = [_coerce(q) for q in queries]
    if not batch:
        return []
    own = service is None
    if own:
        service = QueryService(
            solver,
            workers=max(1, int(workers)),
            max_pending=len(batch) + max(1, int(workers)),
        )
        service.start()
    try:
        futures = [service.submit(q) for q in batch]
        results: list = []
        failure: Exception | None = None
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:
                if failure is None:
                    failure = exc
        if stats is not None:
            for result in results:
                stats.merge(result.stats)
        if metrics is not None:
            if own:
                # The service registry already merged every per-query
                # snapshot plus the one-time warmup and the service
                # counters/histograms — hand the whole thing over.
                metrics.merge(service.metrics)
            else:
                for result in results:
                    if result.metrics is not None:
                        metrics.merge(result.metrics)
        if tracer is not None:
            span = tracer.begin(
                "batch", cat="batch", queries=len(batch), workers=service.workers
            )
            for result in results:
                if result.trace is not None:
                    tracer.absorb(result.trace, parent=span)
            tracer.end(span)
        if failure is not None:
            raise failure
        return results
    finally:
        if own:
            service.shutdown()
