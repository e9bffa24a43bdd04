"""Structured query logging — one JSON event per query, plus slow dumps.

The metrics registry aggregates *across* queries and a query's event
record explains *one* query; this module is the per-query ledger in
between: every query the solver answers emits exactly one JSON object
on its own line (``jsonl``), carrying a stable **query id**, the
algorithm, latency, and the non-zero work counters.  The
id is generated in :meth:`~repro.core.kpj.KPJSolver._solve`, stamped
on the :class:`~repro.core.result.QueryResult`, and carried by the
record's ``query`` event, whose span every other span of the query
descends from on export — so a log line, a trace tree, and a batch
report all name the same query the same way.

Query ids are fork-safe by construction: ``q-<pid hex>-<seq>`` — a
forked worker inherits the parent's sequence counter but never its
pid, so ids stay globally unique across
:class:`~repro.server.service.QueryService` workers with zero
coordination.

**Slow-query dumps.**  A :class:`QueryLogger` built with ``slow_ms``
additionally snapshots any query at or over the threshold into its own
JSON file (``slow-<query_id>.json`` under ``slow_dir``) containing the
log event *plus* the query's record and metrics snapshot — the
evidence one wants when a p99 straggler shows up hours later.
:func:`load_slow_query` round-trips the dump back into a live
:class:`~repro.obs.metrics.MetricsRegistry` and the record, revived
from JSON (its event tuples are lists), which
:func:`~repro.obs.tracing.spans` and every export built on it accept
directly.

Format contract (DESIGN.md §3g): events are single-line JSON objects
with at least ``event``, ``v``, ``ts``, ``query_id``;
:func:`parse_query_log` is the strict reader the CI smoke job runs
against the writer.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Mapping

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.result import QueryResult

__all__ = [
    "QueryLogger",
    "SlowQuery",
    "new_query_id",
    "parse_query_log",
    "load_slow_query",
    "LOG_VERSION",
]

#: Schema version stamped on every event (bump on breaking change).
LOG_VERSION = 1

_SEQ = itertools.count(1)


def new_query_id() -> str:
    """Mint a process-unique query id (``q-<pid hex>-<seq>``).

    The pid component makes ids unique across forked service workers
    (each worker inherits the sequence position but not the pid); the
    monotone sequence makes them unique — and sortable by issue order
    — within a process.
    """
    return f"q-{os.getpid():x}-{next(_SEQ):06d}"


class QueryLogger:
    """Emit one JSON line per query, and dump slow queries to files.

    Parameters
    ----------
    stream:
        Writable text stream for the event lines.  Mutually exclusive
        with ``path``.
    path:
        File to append event lines to (opened lazily, line-buffered in
        spirit: every event is a single ``write`` followed by a flush,
        so concurrent appenders interleave whole lines).
    slow_ms:
        Latency threshold; a query whose ``elapsed_ms`` reaches it gets
        a full dump (event + record + metrics) written under
        ``slow_dir``.  ``None`` disables slow dumps.
    slow_dir:
        Directory for slow-query dump files; created on first dump.
        Defaults to the log file's directory (or the working directory
        for stream-backed loggers).
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        *,
        path: str | os.PathLike | None = None,
        slow_ms: float | None = None,
        slow_dir: str | os.PathLike | None = None,
    ) -> None:
        if (stream is None) == (path is None):
            raise ValueError("exactly one of stream/path is required")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError(f"slow_ms must be non-negative, got {slow_ms}")
        self._stream = stream
        self._path = Path(path) if path is not None else None
        self._owns_stream = stream is None
        self.slow_ms = slow_ms
        if slow_dir is not None:
            self.slow_dir = Path(slow_dir)
        elif self._path is not None:
            self.slow_dir = self._path.parent
        else:
            self.slow_dir = Path(".")
        #: Number of slow dumps written over this logger's lifetime.
        self.slow_count = 0

    # ------------------------------------------------------------------
    def _ensure_stream(self) -> IO[str]:
        if self._stream is None:
            self._stream = open(self._path, "a", encoding="utf-8")
        return self._stream

    def emit(self, event: Mapping) -> None:
        """Write one event as a single JSON line and flush.

        The whole line is one ``write`` call, so lines from multiple
        processes appending to the same file never interleave within a
        line (POSIX ``O_APPEND`` semantics).
        """
        stream = self._ensure_stream()
        stream.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        stream.flush()

    def log_query(
        self,
        result: "QueryResult",
        *,
        query_id: str,
        sources: Iterable[int] | None = None,
        category: str | int | None = None,
        destinations: int | None = None,
        k: int | None = None,
    ) -> dict:
        """Build, emit, and return the event for one finished query.

        When the query is slow (``elapsed_ms >= slow_ms``) the event
        gains ``"slow": true`` and ``"slow_dump": <path>`` pointing at
        the full dump written alongside — the dump embeds the same
        event, so either artifact alone identifies the query.
        """
        event: dict = {
            "event": "query",
            "v": LOG_VERSION,
            "ts": time.time(),
            "query_id": query_id,
            "algorithm": result.algorithm,
            "elapsed_ms": round(result.elapsed_ms, 3),
            "paths": result.k_found,
            "stats": result.stats.nonzero(),
        }
        if k is not None:
            event["k"] = k
        if sources is not None:
            event["sources"] = list(sources)
        if category is not None:
            event["category"] = category
        if destinations is not None:
            event["destinations"] = destinations
        if result.paths:
            event["best_length"] = result.paths[0].length
        if self.slow_ms is not None and result.elapsed_ms >= self.slow_ms:
            event["slow"] = True
            event["slow_dump"] = str(self._dump_slow(event, result))
        self.emit(event)
        return event

    def _dump_slow(self, event: Mapping, result: "QueryResult") -> Path:
        self.slow_dir.mkdir(parents=True, exist_ok=True)
        path = self.slow_dir / f"slow-{event['query_id']}.json"
        payload = {
            "format": "kpj-slow-query",
            "v": LOG_VERSION,
            "event": dict(event),
            "metrics": result.metrics,
            "trace": result.trace,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2, default=str)
            fh.write("\n")
        self.slow_count += 1
        return path

    def close(self) -> None:
        """Close the underlying stream if this logger opened it."""
        if self._owns_stream and self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "QueryLogger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_query_log(text: str) -> list[dict]:
    """Strict reader for the event-line format :class:`QueryLogger` writes.

    Returns the parsed events in file order; raises
    :class:`ValueError` naming the offending line on malformed JSON, a
    non-object line, a missing required key, or an unknown schema
    version — the CI smoke job feeds generated logs through this, so a
    clean pass *is* the writer/reader contract.
    """
    events: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"query log line {lineno}: invalid JSON ({exc})")
        if not isinstance(event, dict):
            raise ValueError(
                f"query log line {lineno}: expected an object, "
                f"got {type(event).__name__}"
            )
        for key in ("event", "v", "ts", "query_id"):
            if key not in event:
                raise ValueError(f"query log line {lineno}: missing {key!r}")
        if event["v"] != LOG_VERSION:
            raise ValueError(
                f"query log line {lineno}: unsupported version {event['v']!r}"
            )
        if not isinstance(event["query_id"], str) or not event["query_id"]:
            raise ValueError(
                f"query log line {lineno}: bad query_id {event['query_id']!r}"
            )
        events.append(event)
    return events


@dataclass
class SlowQuery:
    """A slow-query dump, reconstructed (see :func:`load_slow_query`).

    ``metrics`` is a live registry rebuilt via
    :meth:`~repro.obs.metrics.MetricsRegistry.from_dict` (so
    ``report()``/``render_prom()`` work on it); ``trace`` is the
    query's record as JSON revived it, which
    :func:`~repro.obs.tracing.spans`,
    :func:`~repro.obs.tracing.render_tree` and
    :func:`~repro.obs.tracing.chrome_trace` accept.  Either may be
    ``None`` when the solver ran without that subsystem enabled.
    """

    event: dict
    metrics: MetricsRegistry | None
    trace: dict | None


def load_slow_query(path: str | os.PathLike) -> SlowQuery:
    """Round-trip a slow-query dump file back into live objects."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != "kpj-slow-query":
        raise ValueError(f"{path}: not a kpj-slow-query dump")
    if payload.get("v") != LOG_VERSION:
        raise ValueError(f"{path}: unsupported version {payload.get('v')!r}")
    event = payload.get("event")
    if not isinstance(event, dict) or "query_id" not in event:
        raise ValueError(f"{path}: dump has no embedded query event")
    metrics_dict = payload.get("metrics")
    metrics = (
        MetricsRegistry.from_dict(metrics_dict) if metrics_dict is not None else None
    )
    trace = payload.get("trace")
    if trace is not None and not (
        isinstance(trace, dict) and isinstance(trace.get("events"), list)
    ):
        raise ValueError(f"{path}: trace is not an event record")
    return SlowQuery(event=event, metrics=metrics, trace=trace)
