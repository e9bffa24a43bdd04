"""Resident-worker query service over shared-memory CSR.

CPython's GIL rules out thread-level parallelism for the search
kernels, so throughput comes from processes.  :class:`QueryService`
forks its worker processes **once**, after the solver is fully built:
they hold the CSR graph arrays in :mod:`multiprocessing.shared_memory`
segments (one physical copy for all workers, mapped read-only — see
:mod:`repro.server.shared`) and keep a process-local
:class:`~repro.core.kpj.PreparedCategory` LRU warm across requests, so
steady-state queries pay only their own search.  Only the small
:class:`BatchQuery` / ``QueryResult`` objects cross the pipes.

It is the one multi-process path: ``kpj serve`` runs a long-lived
service behind HTTP (:mod:`repro.server.http`), and :func:`run_batch`
(``KPJSolver.solve_batch``, ``kpj batch``) and the in-process load-test
replay each run on a service started for the call.

Front-end structure (asyncio, one driver task per worker):

* **dispatch** — the service's event loop owns the worker pipes: each
  worker's pipe and process sentinel are readers on it, registered
  when its ``ready`` handshake is awaited, at start and on respawn.
  A driver sends with ``conn.send`` on the loop thread and awaits the
  worker's reply future, which the pipe reader resolves.  No request
  leaves the loop thread, so the service runs no thread of its own
  under ``start_async`` (``kpj serve``) and one, ``kpj-service-loop``,
  under ``start`` (batches, the in-process load test);
* **admission** — a bounded pending set; a submission that would
  exceed ``max_pending`` is shed immediately with
  :class:`ServiceOverloaded` (counter ``service_rejected_overload``)
  instead of queueing without bound;
* **deadlines** — an admitted query carries an absolute deadline;
  cancellation is cooperative, checked before dispatch in the parent
  and once inside the worker, before the query starts (its
  ``prepare`` phase boundary; :class:`DeadlineExceeded`, counter
  ``service_deadline_exceeded``).  A query that has already started
  runs to completion — its result is returned, late;
* **routing and coalescing** — each driver tracks which prepare keys
  its worker holds warm (at most ``prepared_cache_size``), marking a
  key warm when a reply for it arrives.  A request goes to the
  least-loaded worker among those holding its key, or to the key's
  stable ``crc32`` worker when none does, so concurrent identical cold
  keys pay exactly **one** cache miss; the rest, queued behind it,
  ride the warm entry.  Each reply's own cache lookup is counted:
  ``service_prepares`` for a miss, ``service_prepares_coalesced`` for
  a hit.  A key prewarmed in every worker spreads over all of them;
* **fault recovery** — a worker that dies mid-query fails that query
  (or, if it died idle, the next op sent to it) with
  :class:`WorkerDied` (counter ``service_worker_deaths``) and is
  respawned by re-forking the parent, which still maps the same
  shared segments — the replacement inherits the graph state without
  re-exporting anything.

A start that raises part-way (a failed fork, a worker that never
answers its handshake) undoes what it did: forked workers are
retired, the segments unlinked, and the solver's ``csr_cache``
restored.

Each served query's reply is its one account: the parent counts from
it when it arrives, so a query that raises adds no prepare, query or
latency count, only its failure counter if it has one.
Telemetry is the stack every other surface already uses: a
:class:`~repro.obs.metrics.MetricsRegistry` holding the service
counters (``worker_<i>_queries`` among them), the log-spaced
``queue_wait_ms`` histogram and the ``query_latency_ms`` one (a
snapshot carries none), the one-time ``warmup`` phase, and the merge
of every per-query snapshot; ``stats``, the sum of every result's
:class:`~repro.core.stats.SearchStats`; Prometheus exposition via
:meth:`QueryService.render_prom`, which folds ``stats`` in; per-query
ids minted fork-safely by the workers
(:func:`repro.obs.log.new_query_id`).  ``QueryResult.timing`` holds
raw ``perf_counter`` seconds, the clock of every event in a query's
record; it is one machine-wide monotonic clock under fork, so a
worker's ``started_at_s`` minus the parent's ``enqueued_at_s`` is a
real queue wait.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from numbers import Real
from time import perf_counter, sleep as _sleep
from typing import Mapping, Sequence

from repro.core.stats import SearchStats
from repro.exceptions import QueryError
from repro.graph.virtual import is_int
from repro.obs.metrics import LOADTEST_LATENCY_BUCKETS_MS, MetricsRegistry
from repro.obs.tracing import new_record
from repro.server.shared import SharedCSR

__all__ = [
    "BatchQuery",
    "DeadlineExceeded",
    "QueryService",
    "ServiceOverloaded",
    "WorkerDied",
    "run_batch",
]


@dataclass(frozen=True)
class BatchQuery:
    """One KPJ/KSP query of a batch workload.

    ``category`` and ``destinations`` are mutually exclusive, exactly
    as in :meth:`KPJSolver.top_k`.
    """

    source: int
    category: str | None = None
    destinations: tuple[int, ...] | None = None
    k: int = 10
    algorithm: str = "iter-bound-spti"
    alpha: float = 1.1


def _check_types(query: BatchQuery) -> BatchQuery:
    """Reject a wrongly typed field with a ``QueryError`` naming it.

    Range checks stay with the solver; this only makes malformed input
    (a JSON string where a number belongs, a list as a category) fail
    at admission instead of as a ``TypeError`` inside a worker.
    """
    if not is_int(query.source):
        problem = "source must be an integer"
    elif query.category is not None and not isinstance(query.category, str):
        problem = "category must be a string"
    elif query.destinations is not None and not all(
        map(is_int, query.destinations)
    ):
        problem = "destinations must be integers"
    elif not is_int(query.k):
        problem = "k must be an integer"
    elif not isinstance(query.algorithm, str):
        problem = "algorithm must be a string"
    elif not isinstance(query.alpha, Real) or isinstance(query.alpha, bool):
        problem = "alpha must be a number"
    else:
        return query
    raise QueryError(f"malformed batch query {query!r}: {problem}")


def _coerce(query) -> BatchQuery:
    """Accept :class:`BatchQuery` instances or plain mappings."""
    if isinstance(query, BatchQuery):
        return _check_types(query)
    if isinstance(query, Mapping):
        try:
            query = dict(query)
            if "destinations" in query and query["destinations"] is not None:
                query["destinations"] = tuple(query["destinations"])
            query = BatchQuery(**query)
        except TypeError as exc:
            raise QueryError(f"malformed batch query {query!r}: {exc}") from None
        return _check_types(query)
    raise QueryError(
        f"batch queries must be BatchQuery or mappings, got {type(query).__name__}"
    )


def _check_timeout(name: str, timeout_s) -> None:
    """A deadline budget is ``None`` or a non-negative number: a
    negative one would fail every query, a NaN one would disable it."""
    if timeout_s is not None and (
        not isinstance(timeout_s, Real)
        or isinstance(timeout_s, bool)
        or not timeout_s >= 0
    ):
        raise QueryError(
            f"{name} must be a non-negative number, got {timeout_s!r}"
        )


def _execute(solver, query: BatchQuery):
    """Answer one batch query against a solver."""
    return solver.top_k(
        query.source,
        category=query.category,
        destinations=query.destinations,
        k=query.k,
        algorithm=query.algorithm,
        alpha=query.alpha,
    )


class DeadlineExceeded(QueryError):
    """A query's deadline lapsed at a cooperative cancellation point."""


class ServiceOverloaded(QueryError):
    """Admission shed a submission: ``max_pending`` queries in flight."""


class WorkerDied(QueryError):
    """The worker serving a query died mid-query (it was respawned)."""


#: Solver and shared-CSR handle inherited by forked workers.  Set only
#: around :meth:`QueryService._fork`; ``None`` otherwise.
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
    """Worker body for one query: one deadline check before it starts.

    The query's own prepare is its one prepared-cache lookup, so a
    cold key's miss is counted on the query's result.
    """
    started = perf_counter()
    _check_deadline(deadline, "prepare")
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
    if solver.metrics is None:
        # Every served result carries a snapshot, whatever the caller
        # attached; the caller's solver in the parent stays as it is.
        solver.metrics = MetricsRegistry()
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
    """Parent-side handle for one resident worker process.

    After :meth:`watch`, the worker's pipe and its process sentinel are
    readers on the service's event loop, and every method but
    :meth:`retire` runs on that loop's thread.  The worker answers one
    op at a time, so at most one reply is awaited: its future is
    ``_reply``.  The pipe reader resolves it with the unpickled reply;
    the sentinel firing with nothing left to read — or an EOF or a
    broken pipe — fails it with :class:`_WorkerDied` and drops the
    readers (``_loop`` is ``None``): the resident stays dead until the
    service respawns its index.
    """

    index: int
    process: multiprocessing.Process
    conn: Connection
    #: Prepare keys this worker holds warm (LRU order, parent's view).
    warm: OrderedDict = field(default_factory=OrderedDict)
    _loop: asyncio.AbstractEventLoop | None = field(default=None, repr=False)
    _reply: asyncio.Future | None = field(default=None, repr=False)

    def watch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Register the pipe and the sentinel as readers on ``loop``."""
        self._loop = loop
        loop.add_reader(self.conn.fileno(), self._on_pipe)
        loop.add_reader(self.process.sentinel, self._on_exit)

    def unwatch(self) -> None:
        """Drop the readers (a no-op once the loop is closed)."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.remove_reader(self.conn.fileno())
            self._loop.remove_reader(self.process.sentinel)
        self._loop = None

    async def roundtrip(self, message=None):
        """Send ``message`` and await the worker's ``(tag, payload)``
        reply; with no message, await its next one (the ``ready``
        handshake)."""
        if message is not None and self._loop is not None:
            try:
                self.conn.send(message)
            except OSError:  # BrokenPipeError: the peer is gone
                self._die()
        # Raised outside the handler: a chained send error would keep
        # the pickler's buffer exported until a gc pass, which then
        # reports a BufferError.
        if self._loop is None:
            raise _WorkerDied(self.process.pid)
        self._reply = self._loop.create_future()
        return await self._reply

    def _on_pipe(self) -> None:
        try:
            outcome = self.conn.recv()
        except (EOFError, OSError):
            self._die()
            return
        except Exception as exc:  # a reply that does not unpickle
            outcome = exc
        self._settle(outcome)

    def _on_exit(self) -> None:
        if self.conn.poll():  # a last reply, or the EOF, is unread
            self._on_pipe()
        else:
            self._die()

    def _settle(self, outcome) -> None:
        reply, self._reply = self._reply, None
        if reply is None or reply.done():
            return
        if isinstance(outcome, BaseException):
            reply.set_exception(outcome)
        else:
            reply.set_result(outcome)

    def _die(self) -> None:
        self.unwatch()
        self._settle(_WorkerDied(self.process.pid))

    def retire(self) -> None:
        """Ask the worker to exit, terminate it if it does not, and
        close the pipe.  Idempotent; the caller owns the loop (or it is
        closed)."""
        self.unwatch()
        try:
            self.conn.send(("shutdown",))
        except OSError:  # BrokenPipeError, or already closed
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5)
        self.conn.close()


@dataclass
class _Request:
    """One admitted unit of work queued for a driver."""

    op: str  # "query" | "sleep" | "ping"
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
      event-loop thread; ``submit``/``query``/``solve``/``ping`` are
      plain synchronous calls usable from any thread (this is what
      :func:`run_batch` and the load-test replay use);
    * ``await start_async()`` / ``await astop()`` — the service joins
      the caller's running loop; ``await asubmit(...)`` serves
      requests (this is what ``kpj serve``'s HTTP front-end uses).

    Parameters
    ----------
    solver:
        A fully built :class:`~repro.core.kpj.KPJSolver`.  Its frozen
        graph's CSR cache is moved into shared memory at start.  Its
        observers are left as they are: a worker forked from a solver
        without a :class:`MetricsRegistry` installs its own, so every
        served result carries a per-query snapshot.
    workers:
        Resident processes to fork.
    max_pending:
        Admission bound: submissions beyond this many in-flight
        queries are shed with a ``QueryError``.
    default_timeout_s:
        Deadline applied to queries submitted without an explicit
        ``timeout_s``; ``None`` means no deadline.  Checked here like a
        request's own ``timeout_s``: a non-negative number or ``None``.
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
    ) -> None:
        if workers < 1:
            raise QueryError(f"service needs at least one worker, got {workers}")
        if max_pending < 1:
            raise QueryError(f"max_pending must be >= 1, got {max_pending}")
        _check_timeout("default_timeout_s", default_timeout_s)
        self.solver = solver
        self.workers = int(workers)
        self.max_pending = int(max_pending)
        self.default_timeout_s = default_timeout_s
        self.prewarm = tuple(prewarm)
        self.metrics = MetricsRegistry()
        self.stats = SearchStats()
        self._shared: SharedCSR | None = None
        self._saved_csr = None
        self._residents: list[_Resident] = []
        self._queues: list[asyncio.Queue] = []
        self._drivers: list[asyncio.Task] = []
        #: Prewarmed prepare keys, least recently prepared first.
        self._prewarmed: dict[tuple, None] = {}
        #: Requests queued or in flight per worker (the routing load).
        self._load = [0] * self.workers
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._pending = 0
        self._started = False
        self._closed = False
        self._started_at: float | None = None
        #: ``(start, end)`` of the one-time start, timed once: the
        #: ``warmup`` phase and a batch's ``warmup`` event both read it.
        self.warmup_interval: tuple[float, float] | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        """Spawn workers and the background event loop; blocks until
        every worker has completed its ready handshake."""
        self._check_startable()
        try:
            started = self._prepare_start()
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._loop.run_forever, name="kpj-service-loop",
                daemon=True,
            )
            self._thread.start()
            # Each handshake is bounded inside ``_start_drivers``.
            asyncio.run_coroutine_threadsafe(
                self._start_drivers(started), self._loop
            ).result()
        except BaseException:
            self._stop_loop()
            self._teardown()
            raise
        self._started = True
        return self

    async def start_async(self) -> "QueryService":
        """Like :meth:`start`, joining the caller's running loop."""
        self._check_startable()
        try:
            started = self._prepare_start()
            self._loop = asyncio.get_running_loop()
            await self._start_drivers(started)
        except BaseException:
            self._teardown()
            self._loop = None
            raise
        self._started = True
        return self

    def _check_startable(self) -> None:
        if self._started or self._closed:
            raise QueryError("service already started")

    def _prepare_start(self) -> float:
        """Export, prewarm and fork every worker; returns when it began."""
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            raise QueryError(
                "the resident-worker service needs the fork start method; "
                "use run_batch(workers=1) on this platform"
            ) from None
        started = perf_counter()
        self._warmup()
        for index in range(self.workers):
            self._residents.append(self._fork(ctx, index))
        return started

    def _warmup(self) -> None:
        solver = self.solver
        from repro.graph.csr import shared_csr

        # Export the in-process CSR into shared segments and point the
        # graph's cache at the shared views so every whole-graph sweep
        # from here on (scipy SSSP, worker forks) references shared
        # pages.  The pre-service cache is restored
        # at teardown so the solver leaves the service as it entered.
        saved = solver.graph.csr_cache
        self._shared = SharedCSR.export(shared_csr(solver.graph))
        self._saved_csr = saved
        solver.graph.csr_cache = self._shared.graph
        # The prewarm's cache lookups count on the solver's own stats
        # (forked workers inherit them); its gauges go to the service
        # registry, and its time is already inside ``warmup``, so its
        # own ``prepare`` phase is dropped rather than counted twice.
        saved_metrics = solver.metrics
        solver.metrics = prewarm_metrics = MetricsRegistry()
        try:
            for item in self.prewarm:
                category, destinations = (
                    (item, None) if isinstance(item, str) else item
                )
                try:
                    solver.prepare(category=category, destinations=destinations)
                except QueryError:
                    continue
                key = self._prepare_key(category, destinations)
                self._prewarmed.pop(key, None)
                self._prewarmed[key] = None
        finally:
            solver.metrics = saved_metrics
        prewarm_metrics.phases.pop("prepare", None)
        self.metrics.merge(prewarm_metrics)

    def _fork(self, ctx, index: int) -> _Resident:
        """Fork worker ``index``; its handshake is :meth:`_attach`'s."""
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
        except BaseException:
            parent_conn.close()
            raise
        finally:
            _SERVICE_SOLVER = None
            _SERVICE_SHARED = None
            child_conn.close()
        warm = OrderedDict.fromkeys(self._prewarmed)
        self._trim(warm)
        return _Resident(index=index, process=process, conn=parent_conn, warm=warm)

    def _trim(self, warm: OrderedDict) -> None:
        """Bound ``warm`` by the solver's prepared cache (empty at 0)."""
        while len(warm) > self.solver.prepared_cache_size:
            warm.popitem(last=False)

    async def _attach(self, resident: _Resident) -> None:
        """Watch ``resident`` on the loop and await its ``ready``
        handshake (60 s bound); a worker that fails it is retired."""
        resident.watch(self._loop)
        try:
            tag = (await asyncio.wait_for(resident.roundtrip(), 60))[0]
        except (_WorkerDied, asyncio.TimeoutError):
            tag = None
        except BaseException:
            resident.retire()
            raise
        if tag != "ready":
            resident.retire()
            raise QueryError(f"resident worker {resident.index} failed to start")

    async def _start_drivers(self, started: float) -> None:
        for resident in self._residents:
            await self._attach(resident)
        # One-time cost — shared-memory export, prewarm, forks and
        # handshakes — lands under the ``warmup`` phase, so "paid once
        # at startup" is visible in the exposition.
        ended = perf_counter()
        self.warmup_interval = (started, ended)
        self.metrics.observe_phase("warmup", ended - started)
        self._started_at = perf_counter()
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
                self._stop_loop()
        else:
            self._teardown()

    def _stop_loop(self) -> None:
        """Stop, join and close the owned background loop, if any."""
        if self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._thread = None
        if self._loop is not None:
            self._loop.close()
            self._loop = None

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
            resident.retire()
        self._residents = []
        if self._shared is not None:
            self._shared.unlink()
            self.solver.graph.csr_cache = self._saved_csr
            self._shared.release()

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
        _check_timeout("timeout_s", timeout_s)
        if self._pending >= self.max_pending:
            self.metrics.inc("service_rejected_overload")
            raise ServiceOverloaded(
                f"service overloaded: {self._pending} queries pending "
                f"(max_pending={self.max_pending})"
            )
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        enqueued = perf_counter()
        key = self._query_key(query) if op == "query" else None
        request = _Request(
            op=op,
            query=query if op == "query" else None,
            key=key,
            deadline=enqueued + timeout_s if timeout_s is not None else None,
            enqueued=enqueued,
            future=asyncio.get_running_loop().create_future(),
            payload=payload,
        )
        self._pending += 1
        index = self._route(key) if route is None else route % self.workers
        self._load[index] += 1
        self._queues[index].put_nowait(request)
        return request

    @staticmethod
    def _prepare_key(category, destinations) -> tuple:
        if category is not None:
            return ("category", category)
        # The set, as the worker's cache keys it: any order of the
        # same nodes routes to the worker that holds it warm.
        return ("destinations", tuple(sorted(set(destinations or ()))))

    def _query_key(self, query: BatchQuery) -> tuple:
        return self._prepare_key(query.category, query.destinations)

    def _route(self, key: tuple) -> int:
        """The least-loaded worker holding ``key`` warm, else the key's
        ``crc32`` worker.

        A cold key always lands on the same worker, so concurrent
        identical cold requests share one prepare; a key warm in
        several workers (prewarmed) spreads over them.  ``crc32`` (not
        ``hash``) so routing is stable across runs."""
        warm = [r.index for r in self._residents if key in r.warm]
        if not warm:
            return zlib.crc32(repr(key).encode()) % self.workers
        return min(warm, key=self._load.__getitem__)

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
                self._load[index] -= 1

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
        if request.op != "query":  # "sleep" / "ping": a control op
            return await self._roundtrip(resident, (request.op, request.payload))
        result = await self._roundtrip(
            resident, ("query", request.query, request.deadline)
        )
        # Counted from the reply: its one cache lookup says whether the
        # key was cold.  The worker answers one op at a time, so a
        # duplicate queued behind this query finds the key warm.
        resident.warm.pop(request.key, None)
        resident.warm[request.key] = None
        self._trim(resident.warm)
        self.metrics.inc(
            "service_prepares_coalesced"
            if result.stats.prepared_cache_hits
            else "service_prepares"
        )
        started = result.timing["started_at_s"]
        queue_wait = max(0.0, started - request.enqueued)
        result.timing = {
            "enqueued_at_s": request.enqueued,
            "started_at_s": started,
            "queue_wait_s": queue_wait,
        }
        self.metrics.inc("service_queries")
        self.metrics.inc(f"worker_{index}_queries")
        self.metrics.observe(
            "queue_wait_ms",
            queue_wait * 1e3,
            buckets=LOADTEST_LATENCY_BUCKETS_MS,
        )
        self.metrics.observe("query_latency_ms", result.elapsed_ms)
        self.stats.merge(result.stats)
        self.metrics.merge(result.metrics)
        return result

    async def _roundtrip(self, resident: _Resident, message):
        try:
            tag, payload = await resident.roundtrip(message)
        except _WorkerDied as died:
            self.metrics.inc("service_worker_deaths")
            await self._respawn(resident.index)
            raise WorkerDied(
                f"resident worker {resident.index} (pid {died.pid}) died "
                f"mid-query; respawned"
            ) from None
        if tag == "err":
            if isinstance(payload, DeadlineExceeded):
                self.metrics.inc("service_deadline_exceeded")
            raise payload
        return payload

    async def _respawn(self, index: int) -> None:
        """Replace a dead worker; the fresh fork maps the same shared
        segments (the parent never dropped them)."""
        self._residents[index].retire()
        resident = self._fork(multiprocessing.get_context("fork"), index)
        await self._attach(resident)
        self._residents[index] = resident

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
        """Worker introspection roundtrip (pid, segment names, cache),
        queued on ``worker``'s driver like any other op."""
        return self._submit_threadsafe(
            BatchQuery(source=0), "ping", None, route=worker
        ).result()

    def shared_segments(self) -> tuple[str, ...]:
        """Names of the shared-memory segments backing the CSR."""
        return self._shared.segment_names if self._shared is not None else ()

    def render_prom(self) -> str:
        """Prometheus exposition of the service registry, with the work
        counters of :attr:`stats` folded into a copy of it."""
        merged = MetricsRegistry().merge(self.metrics)
        return merged.merge_stats(self.stats).render_prom()

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


def run_batch(solver, queries: Sequence, workers: int = 1) -> list:
    """Answer ``queries`` with ``solver``, in submission order.

    Returns one :class:`~repro.core.result.QueryResult` per query.
    ``workers`` is capped at the batch size; ``workers <= 1`` (or a
    platform without ``fork``) runs the batch sequentially in-process.
    Larger values start a :class:`QueryService` for the call, prewarmed
    with the batch's distinct destination sets so every worker forks
    with a hot prepared cache, and shut it down before returning.
    Answers are identical to sequential solving: workers run the
    per-query code path of :meth:`KPJSolver.top_k`.

    The batch reports into the solver's own stores, whatever the
    worker count.  Its ``stats`` receive every result's counters (on
    the service path, ``service.stats`` after shutdown) and the
    prewarm's cache lookups.  Its ``metrics`` registry receives every
    per-query snapshot and one ``query_latency_ms`` and one
    ``queue_wait_ms`` sample per query; a
    multi-worker batch merges the service registry in after shutdown,
    which adds the one-time ``warmup`` phase, the service counters
    (per-worker ``worker_<i>_queries`` among them) and the prewarm's
    cache gauges.  Its ``tracer`` keeps every result's record (a
    worker's carries that process's ``pid``) and one record of the
    call, its ``batch`` event and, on the service path, ``warmup``: on
    export every query's span tree nests under the ``batch`` span.

    Every result carries ``QueryResult.timing``: ``enqueued_at_s`` and
    ``started_at_s`` in ``perf_counter`` seconds, the clock of its
    record's events, and the derived ``queue_wait_s`` (zero on the
    sequential path).  One failure rule holds at any worker count:
    every query runs, and the first one that raised fails the batch
    with its original exception after the others' stats, metrics and
    records are merged or kept.
    The solver's graph ``csr_cache`` is restored, and its observers
    are left as they were found, whether the batch succeeds, raises,
    or its service fails to start.
    """
    batch = [_coerce(q) for q in queries]
    if not batch:
        return []
    workers = min(int(workers), len(batch))
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1  # pragma: no cover - non-fork platforms
    tracer = solver.tracer
    record = new_record() if tracer is not None else None
    t_batch = perf_counter()
    try:
        if workers > 1:
            results, failure = _solve_on_service(solver, batch, workers, record)
        else:
            results, failure = _solve_in_process(solver, batch)
    finally:
        if record is not None:
            record["events"].append(
                ("batch", t_batch, perf_counter(), (len(batch), workers))
            )
            tracer.records.append(record)
    if failure is not None:
        raise failure
    return results


def _solve_in_process(solver, batch: list) -> tuple[list, Exception | None]:
    """The sequential path: every query runs, and the first failure is
    returned with the completed results, as on the service path.

    Each query merges its own snapshots into the solver's observers.
    """
    results: list = []
    failure: Exception | None = None
    for query in batch:
        started = perf_counter()
        try:
            result = _execute(solver, query)
        except Exception as exc:
            failure = failure or exc
            continue
        # The query starts the instant it is dequeued: zero queue wait.
        result.timing = {
            "enqueued_at_s": started,
            "started_at_s": started,
            "queue_wait_s": 0.0,
        }
        if solver.metrics is not None:
            solver.metrics.observe(
                "queue_wait_ms", 0.0, buckets=LOADTEST_LATENCY_BUCKETS_MS
            )
        results.append(result)
    return results, failure


def _solve_on_service(
    solver, batch: list, workers: int, record: dict | None
) -> tuple[list, Exception | None]:
    """The multi-worker path: one :class:`QueryService` for the call,
    whose start is the ``warmup`` event of the batch's ``record``."""
    prewarm = tuple(dict.fromkeys((q.category, q.destinations) for q in batch))
    service = QueryService(
        solver, workers=workers, max_pending=len(batch), prewarm=prewarm
    )
    service.start()
    try:
        if record is not None:
            record["events"].append(("warmup", *service.warmup_interval, None))
        futures = [service.submit(q) for q in batch]
        results: list = []
        failure: Exception | None = None
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:
                failure = failure or exc
    finally:
        service.shutdown()
    # The workers merged into their own copies of the solver's
    # stores; the parent's take what came back: every per-query
    # snapshot and record, the warmup phase, and the service counters
    # and histograms, failures' siblings included.
    solver.stats.merge(service.stats)
    if solver.metrics is not None:
        solver.metrics.merge(service.metrics)
    if solver.tracer is not None:
        solver.tracer.records.extend(result.trace for result in results)
    return results, failure
