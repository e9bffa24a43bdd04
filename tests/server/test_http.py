"""The `kpj serve` HTTP front-end (`repro.server.http`).

A real service behind a real socket (ephemeral port via the ``ready``
callback), exercised with stdlib urllib and raw sockets only: health,
query, metrics exposition, status, the error-code mapping, and
malformed input (wrong field types, bad ``Content-Length``, over-long
or incomplete request lines and headers) answered with a 400 instead
of a dropped connection, and a body over the limit with a 413.
"""

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.exceptions import QueryError
from repro.obs.metrics import parse_prom
from repro.server.http import _error_status, serve_forever
from repro.server.service import (
    DeadlineExceeded,
    QueryService,
    ServiceOverloaded,
    WorkerDied,
)
from repro.server.shared import active_segments


@pytest.fixture(scope="module")
def endpoint():
    """A served QueryService on an OS-assigned port; torn down after."""
    dataset = road_network("SJ")
    solver = KPJSolver(dataset.graph, dataset.categories, landmarks=4)
    service = QueryService(solver, workers=1, prewarm=("T1",))
    bound: dict = {}
    ready = threading.Event()
    control: dict = {}

    def run():
        async def main():
            stop = asyncio.Event()
            control["loop"] = asyncio.get_running_loop()
            control["stop"] = stop
            await serve_forever(
                service,
                "127.0.0.1",
                0,
                ready=lambda addr: (bound.update(addr=addr), ready.set()),
                stop=stop,
            )
        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(60), "server did not come up"
    host, port = bound["addr"]
    segments = service.shared_segments()
    yield f"http://{host}:{port}", service
    control["loop"].call_soon_threadsafe(control["stop"].set)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert not set(segments) & set(active_segments())


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read()


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _raw(base, head: bytes, timeout: float = 30):
    """Send raw request bytes; return ``(status, body)``.

    ``status`` is ``None`` when the server closed the connection
    without writing a status line.
    """
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    if not response.startswith(b"HTTP/1.1 "):
        return None, response
    head_part, _, body = response.partition(b"\r\n\r\n")
    return int(head_part.split()[1]), body


class TestEndpoints:
    def test_healthz(self, endpoint):
        base, service = endpoint
        status, body = _get(base + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["workers"] == service.workers

    def test_query_roundtrip_matches_direct(self, endpoint):
        base, service = endpoint
        status, body = _post(
            base + "/query", {"source": 3, "category": "T1", "k": 4}
        )
        assert status == 200
        direct = service.solver.top_k(3, category="T1", k=4)
        assert [p["length"] for p in body["paths"]] == [
            p.length for p in direct.paths
        ]
        assert [p["nodes"] for p in body["paths"]] == [
            list(p.nodes) for p in direct.paths
        ]
        assert body["query_id"]
        assert set(body["timing"]) == {
            "enqueued_at_s", "started_at_s", "queue_wait_s"
        }

    def test_metrics_exposition_parses(self, endpoint):
        base, _ = endpoint
        _post(base + "/query", {"source": 1, "category": "T1", "k": 2})
        status, body = _get(base + "/metrics")
        assert status == 200
        samples = parse_prom(body.decode(), require_non_negative=False)
        assert samples[("kpj_service_queries_total", ())] >= 1.0

    def test_status_reports_service_shape(self, endpoint):
        base, service = endpoint
        status, body = _get(base + "/status")
        assert status == 200
        described = json.loads(body)
        assert described["workers"] == service.workers
        assert described["segments"] == list(service.shared_segments())
        assert described["metrics"]["phases"]["warmup"]["calls"] == 1


class TestErrorMapping:
    def _error(self, base, payload):
        try:
            _post(base + "/query", payload)
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, json.loads(exc.read())
        pytest.fail("expected an HTTP error")

    def test_bad_query_is_400(self, endpoint):
        base, _ = endpoint
        code, body = self._error(base, {"source": 1, "category": "NOPE"})
        assert code == 400
        assert "NOPE" in body["error"]

    def test_malformed_body_is_400(self, endpoint):
        base, _ = endpoint
        code, body = self._error(base, {"bogus": True})
        assert code == 400

    def test_deadline_is_504(self, endpoint):
        base, service = endpoint
        service.sleep(0.3, worker=0)
        code, body = self._error(
            base, {"source": 1, "category": "T1", "timeout_s": 0.02}
        )
        assert code == 504
        assert "deadline exceeded" in body["error"]

    @pytest.mark.parametrize(
        "category", ["x died mid-query", "service overloaded?"]
    )
    def test_error_text_does_not_pick_the_status(self, endpoint, category):
        # The unknown category is echoed in the error; the status must
        # still come from the exception type.
        base, _ = endpoint
        code, body = self._error(
            base, {"source": 1, "category": category, "k": 2}
        )
        assert code == 400
        assert category in body["error"]
        _assert_still_serving(base)

    @pytest.mark.parametrize(
        "error,status",
        [
            (ServiceOverloaded("service overloaded"), 429),
            (DeadlineExceeded("deadline exceeded"), 504),
            (WorkerDied("resident worker 0 died mid-query"), 500),
            (QueryError("unknown category"), 400),
        ],
    )
    def test_status_follows_the_exception_type(self, error, status):
        assert _error_status(error) == status

    def test_unknown_path_is_404(self, endpoint):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        excinfo.value.close()
        assert excinfo.value.code == 404

    def test_wrong_method_is_405(self, endpoint):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/query")  # GET on a POST-only route
        excinfo.value.close()
        assert excinfo.value.code == 405


def _assert_still_serving(base):
    status, body = _post(base + "/query", {"source": 3, "category": "T1", "k": 2})
    assert status == 200
    assert len(body["paths"]) == 2


class TestMalformedInput:
    """Wrong field types and bad framing get a 400 JSON error, and the
    server keeps answering afterwards."""

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"source": 3, "category": "T1", "k": "3"}, "k"),
            ({"source": "a", "category": "T1"}, "source"),
            ({"source": 3, "category": ["T3"]}, "category"),
            ({"source": 3, "category": "T1", "timeout_s": "x"}, "timeout_s"),
            ({"source": 3, "category": "T1", "timeout_s": -1}, "timeout_s"),
            ({"source": 3, "destinations": [1, "b"]}, "destinations"),
            ({"source": 3, "category": "T1", "alpha": "fast"}, "alpha"),
            ({"source": 3, "category": "T1", "algorithm": ["da"]}, "algorithm"),
            ({"source": True, "category": "T1"}, "source"),
        ],
        ids=[
            "k-string", "source-string", "category-list", "timeout-string",
            "timeout-negative", "destinations-string-member", "alpha-string",
            "algorithm-list", "source-bool",
        ],
    )
    def test_wrong_field_type_is_400(self, endpoint, payload, field):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/query", payload)
        with excinfo.value:
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
        assert field in body["error"]
        _assert_still_serving(base)

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"source": 5, "category": "T2", "k": 3, "alpha": 1.0}, "alpha"),
            ({"source": 5, "category": "T2", "k": 3, "alpha": 0.5}, "alpha"),
            ({"source": 5, "category": "T2", "k": 0}, "k"),
            ({"source": 5, "category": "T2", "k": -2}, "k"),
        ],
        ids=["alpha-one", "alpha-below-one", "k-zero", "k-negative"],
    )
    def test_out_of_range_value_is_400(self, endpoint, payload, field):
        # Well-typed but out of range: the solver's front door rejects
        # it with a QueryError naming the field (alpha=1.0 used to
        # reach the search driver and drop the connection).
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/query", payload)
        with excinfo.value:
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
        assert body["error"].startswith(f"{field} must be")
        _assert_still_serving(base)

    @pytest.mark.parametrize(
        "value", ["-5", "abc", pytest.param("9" * 5000, id="5000-digits")]
    )
    def test_bad_content_length_is_400(self, endpoint, value):
        base, _ = endpoint
        status, body = _raw(
            base,
            (
                "POST /query HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Length: {value}\r\n\r\n"
            ).encode("ascii"),
        )
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]
        _assert_still_serving(base)

    def test_body_over_the_limit_is_413_before_any_body_byte(self, endpoint):
        # The head names a length it never sends: without the cap the
        # server waits for that body and never replies.
        base, _ = endpoint
        status, body = _raw(
            base,
            b"POST /query HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: 999999999999\r\n\r\n",
            timeout=5,
        )
        assert status == 413
        assert "body limit" in json.loads(body)["error"]
        _assert_still_serving(base)

    def test_oversized_body_413_reaches_a_client_still_sending(self, endpoint):
        # urllib sends the whole body before it reads the reply; a
        # server that closes with the body unread resets the connection
        # and the client sees ECONNRESET instead of the 413.
        base, _ = endpoint
        request = urllib.request.Request(
            base + "/query",
            data=b"x" * (5 * 2**20),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        with excinfo.value:
            assert excinfo.value.code == 413
            assert "body limit" in json.loads(excinfo.value.read())["error"]
        _assert_still_serving(base)

    @pytest.mark.parametrize(
        "head,problem",
        [
            (
                b"GET /" + b"a" * 100_000 + b" HTTP/1.1\r\n\r\n",
                "request line longer than 65536 bytes",
            ),
            (
                b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 100_000
                + b"\r\nHost: localhost\r\n\r\n",
                "header line longer than 65536 bytes",
            ),
            (b"GET\r\n\r\n", "malformed request line"),
            (b"/healthz\r\nHost: localhost\r\n\r\n", "malformed request line"),
        ],
        ids=["long-request-line", "long-header", "bare-method", "bare-path"],
    )
    def test_bad_framing_is_400(self, endpoint, head, problem):
        # An over-long line must not escape the handler as readline's
        # ValueError (no reply, a traceback on stderr), and a request
        # line without a method and a path still gets a reply.
        base, _ = endpoint
        status, body = _raw(base, head)
        assert status == 400
        assert problem in json.loads(body)["error"]
        _assert_still_serving(base)


def test_shutdown_unlinks_segments():
    """A full serve lifecycle leaves no shared memory behind."""
    dataset = road_network("SJ")
    solver = KPJSolver(dataset.graph, dataset.categories, landmarks=2)
    service = QueryService(solver, workers=1)
    control: dict = {}
    ready = threading.Event()

    def run():
        async def main():
            stop = asyncio.Event()
            control["loop"] = asyncio.get_running_loop()
            control["stop"] = stop
            await serve_forever(
                service, "127.0.0.1", 0,
                ready=lambda addr: ready.set(), stop=stop,
            )
        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(60)
    segments = service.shared_segments()
    assert set(segments) <= set(active_segments())
    control["loop"].call_soon_threadsafe(control["stop"].set)
    thread.join(timeout=30)
    assert not set(segments) & set(active_segments())
