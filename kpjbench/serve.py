"""``serve-http``: ``python -m repro serve`` driven over HTTP.

The server runs as a subprocess with its defaults.  One client (this
process, one asyncio loop) holds at most :data:`CONNECTIONS`
connections.  Phase A is a closed loop on both connections.  Phase B,
in traced runs only, is an open-loop Poisson schedule whose latency is
timed from each request's scheduled send time, so a stalled generator
shows as latency and as ``generator.lag_ms_p99``.  Responses are
stored as bytes and checked after each phase.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path
from time import perf_counter

from checks import DIGEST_QUERIES, AnswerChecker, Tally, oracle_checks
from inputs import Workload, arrival_offsets, queries, take
from layers import SolverLayers
from measure import median, pct, proc_peak_rss_mb, ratio
from spans import Spans

CONNECTIONS = 2
WARMUP_QUERIES = 16
YEN_SAMPLES = 8
SAMPLE_WINDOW = 64
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0


def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


class Server:
    """One ``python -m repro serve`` subprocess."""

    def __init__(self, root: Path, w: Workload) -> None:
        self.root = root
        self.w = w
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        self._reader: threading.Thread | None = None

    def start(self) -> float:
        """Start the server; return seconds until its first healthy reply."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p
        )
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dataset", self.w.dataset,
             "--port", "0", "--prewarm", ",".join(self.w.categories)],
            cwd=self.root, env=env, stdout=subprocess.PIPE, text=True,
        )
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=_pump, args=(self.proc.stdout, lines), daemon=True
        )
        self._reader.start()
        while True:
            line = lines.get(timeout=START_TIMEOUT_S)
            if line is None:
                raise RuntimeError(f"server exited during start-up (code {self.proc.wait()})")
            if line.startswith("serving on http://"):
                self.host, _, port = line.split()[2][len("http://"):].partition(":")
                self.port = int(port)
                break
        self.get("/healthz")
        return perf_counter() - t0

    def get(self, path: str) -> dict:
        url = f"http://{self.host}:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=REQUEST_TIMEOUT_S) as response:
            return json.loads(response.read())

    def stop(self) -> int | None:
        """SIGTERM, then wait; returns the exit code (``None`` if it
        had to be killed)."""
        proc, self.proc = self.proc, None
        if proc is None:
            return None
        code = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        self._reader.join(timeout=10)
        proc.stdout.close()
        return code


async def _post(host: str, port: int, body: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            b"POST /query HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
            % (host.encode(), len(body), body)
        )
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def _timed_post(server: Server, q: dict):
    """``(send, done, raw bytes or exception)`` for one request."""
    body = json.dumps(q).encode()
    send = perf_counter()
    try:
        raw = await asyncio.wait_for(_post(server.host, server.port, body), REQUEST_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError) as exc:
        raw = exc
    return send, perf_counter(), raw


async def _closed_loop(server: Server, stream, budget_s: float):
    """``CONNECTIONS`` clients, each sending its next request when the
    previous one is answered, until ``budget_s`` has passed."""
    records = []
    index = itertools.count()
    stop_at = perf_counter() + budget_s

    async def client():
        while perf_counter() < stop_at and (q := next(stream, None)) is not None:
            i = next(index)
            records.append((i, q, *await _timed_post(server, q)))

    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    records.sort(key=lambda r: r[0])
    return records


async def _open_loop(server: Server, qs, offsets):
    """Requests due at ``offsets``; sent on the first free connection."""
    records = []
    due_queue: asyncio.Queue = asyncio.Queue()
    t0 = perf_counter()

    async def scheduler():
        for i, offset in enumerate(offsets):
            delay = t0 + offset - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            due_queue.put_nowait(i)
        for _ in range(CONNECTIONS):
            due_queue.put_nowait(None)

    async def client():
        while (i := await due_queue.get()) is not None:
            records.append((i, qs[i], t0 + offsets[i], *await _timed_post(server, qs[i])))

    await asyncio.gather(scheduler(), *(client() for _ in range(CONNECTIONS)))
    records.sort(key=lambda r: r[0])
    return records, perf_counter() - t0


def _parse(raw) -> tuple[int, dict | None]:
    if isinstance(raw, Exception):
        return 0, None
    head, _, payload = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(None, 2)[1])
    except (IndexError, ValueError):
        return 0, None
    return status, (json.loads(payload) if status == 200 else None)


async def _warm_up(server: Server, stream) -> float:
    t0 = perf_counter()
    for q in take(stream, WARMUP_QUERIES):
        status, _ = _parse((await _timed_post(server, q))[2])
        if status != 200:
            raise RuntimeError(f"warm-up query {q} answered HTTP {status}")
    return perf_counter() - t0


def _shm_left(names) -> list[str]:
    return [name for name in names if Path("/dev/shm", name.lstrip("/")).exists()]


def run(root: Path, w: Workload, size: str, seed: int, seconds: float, trace: bool,
        setup_reps: int) -> dict:
    from repro.core.kpj import KPJSolver
    from repro.datasets.registry import road_network

    # The checks need the served dataset; building it here also times
    # the dataset and landmark layers on it.
    t0 = perf_counter()
    dataset = road_network(w.dataset)
    t1 = perf_counter()
    KPJSolver(dataset.graph, dataset.categories)
    t2 = perf_counter()
    checker = AnswerChecker(dataset.graph)
    category_sets = {c: frozenset(dataset.categories.nodes_of(c)) for c in w.categories}

    setups, warmups, exits = [], [], []
    server = None
    try:
        for rep in range(setup_reps):
            server = Server(root, w)
            healthy = server.start()
            warmups.append(asyncio.run(_warm_up(server, queries(w, dataset.n, category_sets, seed, "warmup"))))
            setups.append(healthy + warmups[-1])
            if rep < setup_reps - 1:
                exits.append(server.stop())
        before = server.get("/status")
        open_s = seconds / 2 if trace else 0.0
        closed = asyncio.run(_closed_loop(
            server, queries(w, dataset.n, category_sets, seed, "closed"), seconds - open_s
        ))
        offsets = arrival_offsets(w.open_qps, open_s, seed)
        opened, open_wall = asyncio.run(
            _open_loop(server, take(queries(w, dataset.n, category_sets, seed, "open"), len(offsets)), offsets)
        )
        after = server.get("/status")
        peak_rss = max(proc_peak_rss_mb(pid) for pid in [server.proc.pid, *after["worker_pids"]])
    finally:
        if server is not None:
            exits.append(server.stop())
    leaked = _shm_left(after["segments"])

    tally = Tally()
    layers = SolverLayers()
    yen_at = set(random.Random(f"{seed}:yen").sample(range(SAMPLE_WINDOW), YEN_SAMPLES))
    samples, digest_lists, bodies = [], [], []

    def verdict(q, raw):
        status, body = _parse(raw)
        if body is None:
            return f"HTTP {status}" if status else f"request failed: {raw!r}"
        bodies.append((status, body))
        paths = [(p["length"], tuple(p["nodes"])) for p in body["paths"]]
        return checker.check(q, category_sets[q["category"]], paths)

    for i, q, send, done, raw in closed:
        reason = verdict(q, raw)
        tally.add(reason)
        if reason is None:
            lengths = [p["length"] for p in bodies[-1][1]["paths"]]
            if i < DIGEST_QUERIES:
                digest_lists.append(lengths)
            if i in yen_at:
                samples.append((q, tuple(sorted(category_sets[q["category"]])), lengths))
    for i, q, due, send, done, raw in opened:
        tally.add(verdict(q, raw))
    details = oracle_checks(tally, dataset.graph, samples, digest_lists, w.name, size, seed)

    closed_ms = [(done - send) * 1e3 for _, _, send, done, _ in closed]
    closed_wall = max(done for *_, done, _ in closed) - min(send for *_, send, _, _ in closed)
    open_ms = [(done - due) * 1e3 for _, _, due, _, done, _ in opened]
    metrics = {
        "qps": len(closed) / closed_wall,
        "latency_p50_ms": pct(closed_ms, 0.5),
        "latency_p99_ms": pct(closed_ms, 0.99),
        "open_p50_ms": pct(open_ms, 0.5),
        "open_p99_ms": pct(open_ms, 0.99),
        "success_ratio": 1.0 - ratio(tally.failed, tally.attempted),
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss,
    }
    details.update(kernel=after["kernel"], closed_samples=len(closed), open_samples=len(opened),
                   setups=setups, server_exit_codes=exits, shm_leaked=leaked)
    if trace:
        # Round trips are timed whether or not the run is traced; the
        # spans are recorded from those stamps after the phases, so
        # tracing costs the measured requests nothing.
        t_record = perf_counter()
        spans = Spans()
        for i, q, send, done, raw in closed:
            spans.add("POST /query", i, send, done)
        for i, q, due, send, done, raw in opened:
            spans.add("POST /query", len(closed) + i, send, done)
        recording = perf_counter() - t_record
        for _, body in bodies:
            layers.add(body["stats"], body["metrics"])
        metrics.update(_layer_metrics(
            layers, bodies, closed, opened, closed_wall, open_wall, recording, before, after,
            {"datasets.build_s": t1 - t0, "landmarks.build_s": t2 - t1,
             "warmup.s": median(warmups)},
        ))
        details["spans"] = spans
    return {"metrics": metrics, "tally": tally, "details": details}


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return after["metrics"]["counters"].get(name, 0) - before["metrics"]["counters"].get(name, 0)


def _layer_metrics(layers: SolverLayers, bodies, closed, opened, closed_wall, open_wall,
                   recording, before, after, setup) -> dict:
    round_trips = [done - send for *_, send, done, _ in closed] + \
                  [done - send for *_, send, done, _ in opened]
    wall = sum(round_trips)
    elapsed_s = sum(body["elapsed_ms"] for _, body in bodies) / 1e3
    search_ms = [body["elapsed_ms"] - prep for (_, body), prep in zip(bodies, layers.prepare_ms)]
    ok = len(bodies)
    non200 = len(closed) + len(opened) - ok
    unattributed = elapsed_s - layers.attributed_s
    reconciled = (
        layers.counts_consistent()
        and layers.queries == ok
        and _counter_delta(before, after, "service_queries") == ok
        and abs(unattributed) <= 0.10 * wall
    )
    open_ok = [(send, done, _parse(raw)[1]) for *_, send, done, raw in opened]
    open_ok = [(send, done, body) for send, done, body in open_ok if body is not None]
    waits = [body["timing"]["queue_wait_s"] * 1e3 for *_, body in open_ok]
    solve = [body["elapsed_ms"] for *_, body in open_ok]
    overhead = [(done - send) * 1e3 - w - s for (send, done, _), w, s in zip(open_ok, waits, solve)]
    responses = [raw for *_, raw in closed + opened if not isinstance(raw, Exception)]
    stats = layers.stats
    hits, misses = stats["prepared_cache_hits"], stats["prepared_cache_misses"]
    out = dict(setup)
    out.update({
        "prepare.calls": layers.calls["prepare"],
        "prepare.hits": hits,
        "prepare.misses": misses,
        "prepare.hit_ratio": ratio(hits, hits + misses),
        "prepare.ms_p50": pct(layers.prepare_ms, 0.5),
        "prepare.ms_share": ratio(sum(layers.prepare_ms) / 1e3, wall),
        # Overlays are built once, at start-up (--prewarm); no query
        # builds one.
        "graph.overlay_ms_p50": 0.0,
        "graph.overlay_ms_share": 0.0,
        "search.ms_p50": pct(search_ms, 0.5),
        "search.ms_share": ratio(sum(search_ms) / 1e3, wall),
        "service.queue_wait_ms_p50": pct(waits, 0.5),
        "service.queue_wait_ms_p99": pct(waits, 0.99),
        "service.solve_ms_p50": pct(solve, 0.5),
        "service.overhead_ms_p50": pct(overhead, 0.5),
        "service.occupancy": ratio(sum(solve) / 1e3, after["workers"] * open_wall),
        "service.prepares": _counter_delta(before, after, "service_prepares"),
        "service.prepares_coalesced": _counter_delta(before, after, "service_prepares_coalesced"),
        "service.rejected": _counter_delta(before, after, "service_rejected_overload"),
        "service.worker_deaths": _counter_delta(before, after, "service_worker_deaths"),
        "http.response_bytes_mean": ratio(sum(map(len, responses)), len(responses)),
        "http.non200": non200,
        "generator.lag_ms_p99": pct([(send - due) * 1e3 for *_, due, send, _, _ in opened], 0.99),
        "generator.sent": len(opened),
        "trace.overhead_ratio": ratio(closed_wall + open_wall + recording, closed_wall + open_wall),
        "trace.unattributed_ratio": ratio(unattributed, wall),
        "trace.reconciled": int(reconciled),
    })
    out.update(layers.metrics())
    return out
