"""Minimal HTTP front-end for :class:`~repro.server.service.QueryService`.

``kpj serve`` binds this over asyncio streams — no web framework, no
dependency beyond the standard library.  The surface is deliberately
tiny and JSON-first:

* ``GET /healthz`` — liveness: worker count, pending depth;
* ``GET /metrics`` — Prometheus text exposition of the service
  registry (the same strict format ``kpj metrics`` emits, so
  :func:`repro.obs.metrics.parse_prom` round-trips it);
* ``GET /status`` — JSON service description: pids, shared segments,
  uptime, the full metrics report, aggregate §3g work counters;
* ``POST /query`` — one KPJ/KSP query; the body mirrors
  :class:`~repro.server.pool.BatchQuery` (``source`` required,
  ``category``/``destinations``/``k``/``algorithm``/``alpha``
  optional) plus ``timeout_s`` for a per-query deadline.  Responds
  with ``QueryResult.to_dict()`` — paths, stats, per-query metrics
  snapshot, query id, and the epoch-rebased serving timing.

Error mapping keeps the service's failure taxonomy visible to load
generators: admission shedding → ``429``, a lapsed deadline → ``504``,
any other ``QueryError`` (bad category, malformed body, a wrongly
typed field, a negative or non-integer ``Content-Length``) → ``400``,
worker death mid-query → ``500``.
"""

from __future__ import annotations

import asyncio
import json
import signal

from repro.exceptions import QueryError
from repro.server.service import DeadlineExceeded, QueryService

__all__ = ["run_server", "serve_forever"]


def _response(status: int, body: bytes, content_type: str) -> bytes:
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
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
    except DeadlineExceeded as exc:
        return _json_response(504, {"error": str(exc)})
    except QueryError as exc:
        status = 429 if "service overloaded" in str(exc) else 400
        if "died mid-query" in str(exc):
            status = 500
        return _json_response(status, {"error": str(exc)})
    return _json_response(200, result.to_dict())


async def _handle(service: QueryService, reader, writer) -> None:
    try:
        request_line = await reader.readline()
        parts = request_line.decode("ascii", "replace").split()
        if len(parts) < 2:
            return
        method, path = parts[0], parts[1]
        content_length = 0
        bad_length = None
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("ascii", "replace").partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                # isdigit() rejects signs, blanks and non-integers alike.
                if value.isdigit():
                    content_length = int(value)
                else:
                    bad_length = value
        if bad_length is not None:
            writer.write(
                _json_response(
                    400, {"error": f"malformed Content-Length header: {bad_length!r}"}
                )
            )
            await writer.drain()
            return
        body = (
            await reader.readexactly(content_length) if content_length else b""
        )
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
            lambda r, w: _handle(service, r, w), host, port
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
