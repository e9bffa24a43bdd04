"""In-memory spans recorded by the benchmark around public calls.

A span is ``(name, query_id, parent, start, end)`` with ``parent`` the
index of the enclosing span (or -1) and times from ``perf_counter``.
Spans stay in memory and are written out once, at the end of a traced
run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Spans:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.query_ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query_id: int = -1):
        index = len(self.names)
        self.names.append(name)
        self.query_ids.append(query_id)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.ends[index] = perf_counter()

    def add(self, name: str, query_id: int, start: float, end: float, parent: int = -1) -> int:
        """Record a span whose interval was measured elsewhere (an HTTP
        round trip timed by the load generator)."""
        self.names.append(name)
        self.query_ids.append(query_id)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.names) - 1

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def by_query(self, name: str) -> dict[int, float]:
        """Duration of each query's ``name`` span, by query id."""
        return {q: e - s for n, q, s, e in zip(self.names, self.query_ids, self.starts, self.ends)
                if n == name}

    def count(self, name: str) -> int:
        return self.names.count(name)

    def dump(self, path) -> None:
        origin = min(self.starts, default=0.0)
        rows = [
            {"name": n, "query": q, "parent": p,
             "start_us": round((s - origin) * 1e6, 1), "end_us": round((e - origin) * 1e6, 1)}
            for n, q, p, s, e in zip(self.names, self.query_ids, self.parents, self.starts, self.ends)
        ]
        path.write_text(json.dumps(rows))
