"""Minimal HTTP front-end for :class:`~repro.server.service.QueryService`.

``kpj serve`` binds this over asyncio streams — no web framework, no
dependency beyond the standard library.  The surface is deliberately
tiny and JSON-first:

* ``GET /healthz`` — liveness: worker count, pending depth;
* ``GET /metrics`` — Prometheus text exposition of the service
  registry (the same strict format ``kpj batch --metrics prom``
  emits, so :func:`repro.obs.metrics.parse_prom` round-trips it);
* ``GET /status`` — JSON service description: pids, shared segments,
  uptime, the full metrics report, aggregate §3g work counters;
* ``POST /query`` — one KPJ/KSP query; the body mirrors
  :class:`~repro.server.service.BatchQuery` (``source`` required,
  ``category``/``destinations``/``k``/``algorithm``/``alpha``
  optional) plus ``timeout_s`` for a per-query deadline.  Responds
  with ``QueryResult.to_dict()`` — paths, stats, per-query metrics
  snapshot, query id, and the serving timing in ``perf_counter``
  seconds.

Error mapping keeps the service's failure taxonomy visible to load
generators, and goes by exception type, never by the error text:
admission shedding (:class:`~repro.server.service.ServiceOverloaded`)
→ ``429``, a lapsed deadline (``DeadlineExceeded``) → ``504``, worker
death mid-query (``WorkerDied``) → ``500``, any other ``QueryError``
(bad category, malformed body, a wrongly typed field) → ``400``.
Malformed framing — a request line without a method and a path, a
head line over :data:`LINE_LIMIT` bytes, a negative, non-integer or
over-long ``Content-Length`` — is answered ``400`` too, with the
problem named.  A head over :data:`HEAD_LIMIT` bytes gets a ``400``
and a ``Content-Length`` over :data:`BODY_LIMIT` a ``413``, each
before the rest is read; the server then drains what the client
still sends (up to :data:`DISCARD_LIMIT` bytes and
:data:`DISCARD_DEADLINE_S` seconds), so the client reads the reply
instead of a reset, and keeps serving.  A request whose head and body
have not arrived within :data:`READ_DEADLINE_S` seconds of the
connection gets a ``408`` and the connection closes; the deadline
ends once the body is read, so a slow query is never cut.
"""

from __future__ import annotations

import asyncio
import json
import signal

from repro.exceptions import QueryError
from repro.server.service import (
    DeadlineExceeded,
    QueryService,
    ServiceOverloaded,
    WorkerDied,
)

__all__ = ["run_server", "serve_forever"]

#: Longest request-head line read (asyncio's default stream limit).
LINE_LIMIT = 2**16

#: Most bytes a whole request head may take: four lines at the line
#: limit.  Without it a client streaming header lines, each under the
#: line limit, is read for as long as it sends.
HEAD_LIMIT = 4 * LINE_LIMIT

#: Seconds from the connection's accept within which the head and
#: the body must arrive.  Without it an idle connection, or one that
#: stalls mid-request, holds its socket and handler forever.
READ_DEADLINE_S = 30.0

#: Largest request body read.  A body listing every node of the
#: largest registry dataset (the USA analogue's 120,000 node ids,
#: about 0.85 MB of JSON) fits with room to spare; without a cap the
#: server would wait for, and buffer, whatever length the head names.
BODY_LIMIT = 4 * 2**20

#: After a 413 the server half-closes and reads and drops up to this
#: many bytes of the refused body, for at most
#: :data:`DISCARD_DEADLINE_S` seconds, before it closes.  Closing with
#: the body unread would reset the connection, and a client still
#: sending it (``urllib`` does) would see the reset, not the 413.
DISCARD_LIMIT = 16 * 2**20
DISCARD_DEADLINE_S = 2.0


def _response(status: int, body: bytes, content_type: str) -> bytes:
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        408: "Request Timeout",
        413: "Content Too Large",
        429: "Too Many Requests",
        500: "Internal Server Error",
        504: "Gateway Timeout",
    }.get(status, "Error")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload) -> bytes:
    return _response(
        status, json.dumps(payload).encode("utf-8"), "application/json"
    )


async def _handle_query(service: QueryService, body: bytes) -> bytes:
    try:
        fields = json.loads(body.decode("utf-8")) if body else {}
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _json_response(400, {"error": f"malformed JSON body: {exc}"})
    if not isinstance(fields, dict):
        return _json_response(400, {"error": "query body must be an object"})
    timeout_s = fields.pop("timeout_s", None)
    try:
        result = await service.asubmit(fields, timeout_s=timeout_s)
    except QueryError as exc:
        return _json_response(_error_status(exc), {"error": str(exc)})
    return _json_response(200, result.to_dict())


def _error_status(exc: QueryError) -> int:
    if isinstance(exc, ServiceOverloaded):
        return 429
    if isinstance(exc, DeadlineExceeded):
        return 504
    if isinstance(exc, WorkerDied):
        return 500
    return 400


async def _read_line(reader) -> bytes | None:
    """One line of the request head; ``None`` for a line over
    :data:`LINE_LIMIT` bytes, whose bytes up to here are discarded."""
    try:
        return await reader.readline()
    except ValueError:  # readline's form of asyncio.LimitOverrunError
        return None


async def _read_head(reader):
    """Read the request line and headers through the blank line.

    Returns ``(method, path, content_length, problem)``, or ``None``
    when the peer closed before sending anything.  ``problem`` names
    the first framing error; the rest of the head is still consumed,
    so that the 400 reply is not lost to a reset of a connection
    closed with unread input, up to :data:`HEAD_LIMIT` bytes.  A head
    over that is read no further: its ``content_length`` is then
    :data:`DISCARD_LIMIT`, what the caller drains after its 400.
    """
    request_line = await _read_line(reader)
    if request_line == b"":
        return None
    # An over-long line was read up to the line limit, then dropped.
    size = LINE_LIMIT if request_line is None else len(request_line)
    method = path = problem = None
    if request_line is None:
        problem = f"request line longer than {LINE_LIMIT} bytes"
    else:
        parts = request_line.decode("ascii", "replace").split()
        if len(parts) < 2:
            problem = (
                f"malformed request line {request_line[:80]!r}: "
                f"expected '<method> <path> HTTP/1.1'"
            )
        else:
            method, path = parts[0], parts[1]
    content_length = 0
    while True:
        line = await _read_line(reader)
        size += LINE_LIMIT if line is None else len(line)
        if size > HEAD_LIMIT:
            problem = problem or f"request head longer than {HEAD_LIMIT} bytes"
            return method, path, DISCARD_LIMIT, problem
        if line is None:
            problem = problem or f"header line longer than {LINE_LIMIT} bytes"
            continue
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        if name.strip().lower() == "content-length":
            value = value.strip()
            # isdigit() rejects signs, blanks and non-integers alike;
            # the length cap keeps int() clear of its digit limit.
            if value.isdigit() and len(value) <= 18:
                content_length = int(value)
            else:
                problem = problem or (
                    f"malformed Content-Length header: {value[:80]!r}"
                )
    return method, path, content_length, problem


async def _discard(reader, limit: int) -> None:
    """Read and drop up to ``limit`` bytes, for at most
    :data:`DISCARD_DEADLINE_S` seconds or until the peer closes."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + DISCARD_DEADLINE_S
    while limit > 0:
        left = deadline - loop.time()
        if left <= 0:
            return
        try:
            chunk = await asyncio.wait_for(reader.read(min(limit, 2**16)), left)
        except asyncio.TimeoutError:
            return
        if not chunk:
            return
        limit -= len(chunk)


async def _handle(service: QueryService, reader, writer) -> None:
    task = asyncio.current_task()
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    # One timer per connection, cancelled once the body is read.
    deadline = asyncio.get_running_loop().call_later(READ_DEADLINE_S, expire)
    try:
        try:
            head = await _read_head(reader)
            if head is None:
                return
            method, path, content_length, problem = head
            status = 400
            if problem is None and content_length > BODY_LIMIT:
                status, problem = 413, (
                    f"Content-Length {content_length} is over the "
                    f"{BODY_LIMIT}-byte body limit"
                )
            if problem is None:
                body = (
                    await reader.readexactly(content_length) if content_length else b""
                )
        except asyncio.CancelledError:
            if not expired:
                raise
            status, content_length = 408, 0
            problem = f"request not received within {READ_DEADLINE_S:g} s"
        finally:
            deadline.cancel()
        if problem is not None:
            writer.write(_json_response(status, {"error": problem}))
            await writer.drain()
            if content_length:
                # Half-close, then read what the client still sends,
                # so it reads this reply instead of a reset.
                writer.write_eof()
                await _discard(reader, min(content_length, DISCARD_LIMIT))
            return
        if method == "GET" and path == "/healthz":
            out = _json_response(
                200,
                {
                    "status": "ok",
                    "workers": service.workers,
                    "pending": service.pending,
                },
            )
        elif method == "GET" and path == "/metrics":
            out = _response(
                200,
                service.render_prom().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        elif method == "GET" and path == "/status":
            out = _json_response(200, service.describe())
        elif path == "/query":
            if method != "POST":
                out = _json_response(405, {"error": "POST /query"})
            else:
                out = await _handle_query(service, body)
        else:
            out = _json_response(404, {"error": f"no route {path!r}"})
        writer.write(out)
        await writer.drain()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, OSError):  # pragma: no cover
            pass


async def serve_forever(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8321,
    ready=None,
    stop: asyncio.Event | None = None,
    announce=None,
) -> None:
    """Start the service on the running loop and serve HTTP until
    ``stop`` is set (or SIGINT/SIGTERM when ``stop`` is omitted).

    ``ready`` (a callable) receives the bound ``(host, port)`` once
    the socket is listening — tests use it to discover an ephemeral
    port.  Shutdown is clean: the listener closes first, then the
    service retires its workers and unlinks shared memory.
    """
    await service.start_async()
    try:
        server = await asyncio.start_server(
            lambda r, w: _handle(service, r, w), host, port, limit=LINE_LIMIT
        )
    except BaseException:
        await service.astop()
        raise
    if stop is None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    if announce is not None:
        announce(
            f"serving on http://{bound[0]}:{bound[1]} "
            f"(workers={service.workers}, "
            f"kernel={getattr(service.solver, 'kernel', '?')})"
        )
    try:
        async with server:
            await stop.wait()
    finally:
        await service.astop()


def run_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8321,
    announce=None,
) -> None:
    """Blocking entry point for ``kpj serve``."""
    asyncio.run(serve_forever(service, host, port, announce=announce))
