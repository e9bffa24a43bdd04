"""Span tracing — per-query timelines with parent/child structure.

:class:`~repro.obs.metrics.MetricsRegistry` answers *how much* time
each phase costs in aggregate; this module answers *why one query was
slow*: which subspaces were divided, which ``TestLB`` calls missed the
threshold, how the ``τ = α·τ`` schedule interacted with tree growth.
A :class:`SpanTracer` records **spans** — named intervals with
monotonic timestamps, parent/child nesting, and per-span attributes —
into a bounded ring buffer, and renders them three ways:

* :func:`chrome_trace` — Chrome trace-event JSON (the ``"X"``
  complete-event flavour) loadable in ``chrome://tracing`` or
  Perfetto, with one ``pid`` lane per worker process;
* :func:`render_tree` — a human-readable indented tree
  (``kpj query --trace``);
* :func:`render_narrative` — the τ-schedule narrative of one
  iteratively bounding query, one line per queue pop
  (``kpj explain``).

Spans are the package's one per-event record of a search; the
metrics registry's phase timers are the cheap aggregate channel every
service worker runs.  Spans stay opt-in because recording them costs
far more than the timers (DESIGN.md §3d), and the disabled path costs
one ``None`` check per site — nothing here is imported or allocated on
a hot path unless a tracer was explicitly attached (a unit test
asserts the no-allocation property).  Tracers are *per scope*: the
solver keeps one for its lifetime, every sampled query records into a
fresh per-query tracer whose :meth:`SpanTracer.as_dict` snapshot rides
back on the :class:`~repro.core.result.QueryResult` (a plain dict, so
it crosses the worker process boundary) and is folded into the
solver's tracer by :meth:`SpanTracer.absorb`, under whatever span is
open there — a :func:`~repro.server.service.run_batch` call's batch
span, at any worker count.

Span taxonomy (see DESIGN.md §3d for the full contract):

==============  =========  ==================================================
name            cat        attributes
==============  =========  ==================================================
``query``       query      ``algorithm``, ``k``, ``query_id``, ``paths``
``prepare``     phase      ``cache`` (``"hit"``/``"miss"``)
``search``      search     —
``iter_bound``  search     ``bound_kind``, ``leftover``, ``results``
``iterate``     search     ``prefix``, ``depth``, ``lb``, ``verdict``,
                           ``length``
``comp_sp``     phase      —
``spt_grow``    phase      ``tau``
``test_lb``     phase      ``depth``, ``lb``, ``tau``, ``verdict``
``division``    phase      ``depth``, ``children``, ``pruned``
``batch``       batch      ``queries``, ``workers``
``warmup``      phase      —
==============  =========  ==================================================
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Iterator, Mapping

__all__ = [
    "SpanTracer",
    "maybe_span",
    "chrome_trace",
    "validate_chrome_trace",
    "render_tree",
    "render_narrative",
    "folded_stacks",
    "phase_durations",
    "DEFAULT_CAPACITY",
]

#: Default ring-buffer bound — large enough that a single query on the
#: registry datasets never evicts, small enough that a long-lived
#: solver tracer stays a few MB.
DEFAULT_CAPACITY = 65_536


class SpanTracer:
    """Bounded span sink for one scope (a query, a batch, a solver).

    Spans are plain dicts — ``{"id", "parent", "name", "cat", "ts",
    "dur", "pid", "attrs"}`` — appended to a ring buffer on
    completion, so :meth:`as_dict` is a shallow copy and the snapshot
    pickles across the worker process boundary unchanged.  ``ts`` is
    :func:`time.perf_counter` (``CLOCK_MONOTONIC``: one machine-wide
    clock, so parent- and worker-process spans share a timeline) and
    ``dur`` is in seconds.

    Parameters
    ----------
    capacity:
        Ring-buffer bound; once full, the *oldest* completed span is
        evicted per append (:attr:`evicted` counts them).  Tree
        reconstruction treats spans whose parent was evicted as roots.
    sample_every:
        Sampling stride for :meth:`sample` — the solver traces one
        query in every ``sample_every`` (1 = every query).
    """

    __slots__ = ("capacity", "sample_every", "evicted", "_spans", "_stack",
                 "_next_id", "_pid", "_seen")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, sample_every: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.capacity = capacity
        self.sample_every = sample_every
        #: Completed spans dropped by the ring buffer.
        self.evicted = 0
        self._spans: deque[dict] = deque(maxlen=capacity)
        self._stack: list[dict] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._seen = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def sample(self) -> bool:
        """Sampling decision for the next unit of work (1-in-N)."""
        decision = self._seen % self.sample_every == 0
        self._seen += 1
        return decision

    def begin(self, name: str, cat: str = "span", **attrs) -> dict:
        """Open a span; returns the token :meth:`end` expects.

        The span nests under the innermost still-open span of this
        tracer.  It is buffered only on :meth:`end` (children complete
        first; reconstruction orders by ``ts``, not buffer position).
        """
        span = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "cat": cat,
            "ts": perf_counter(),
            "dur": 0.0,
            "pid": self._pid,
            "attrs": dict(attrs) if attrs else {},
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: dict, **attrs) -> None:
        """Close ``span`` (and any forgotten children still open)."""
        now = perf_counter()
        span["dur"] = now - span["ts"]
        if attrs:
            span["attrs"].update(attrs)
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top["dur"] = now - top["ts"]  # implicitly closed straggler
            self._push(top)
        self._push(span)

    @contextmanager
    def span(self, name: str, cat: str = "span", **attrs) -> Iterator[dict]:
        """Context-manager form of :meth:`begin`/:meth:`end`.

        Yields the span dict so the body can set late attributes:
        ``with tracer.span("prepare") as sp: ...; sp["attrs"]["x"] = 1``.
        """
        span = self.begin(name, cat, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        cat: str = "span",
        attrs: Mapping | None = None,
    ) -> dict:
        """Record an already-timed span under the current open parent.

        The hot-loop form: the iteratively bounding driver takes its
        own ``perf_counter`` pair (shared with the metrics phase
        accumulators) and hands the completed interval in — no context
        manager, no stack traffic.
        """
        span = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "cat": cat,
            "ts": start,
            "dur": end - start,
            "pid": self._pid,
            "attrs": dict(attrs) if attrs else {},
        }
        self._next_id += 1
        self._push(span)
        return span

    def absorb(self, snapshot: Mapping | None) -> None:
        """Fold another tracer's :meth:`as_dict` snapshot in.

        Span ids are re-based to stay unique; spans whose parent is
        missing from the snapshot (evicted in the source ring, or
        genuine roots) nest under the innermost still-open span of
        this tracer, the rule :meth:`begin` and :meth:`add` follow —
        this is how every query tree of a
        :func:`~repro.server.service.run_batch` lands under its batch
        span.  Original ``pid``/timestamps are kept, so a Chrome
        export shows one lane per worker on the shared monotonic
        timeline.
        """
        if snapshot is None:
            return
        spans = snapshot.get("spans", ())
        self.evicted += int(snapshot.get("evicted", 0))
        if not spans:
            return
        offset = self._next_id
        present = {s["id"] for s in spans}
        top = 0
        new_parent = self._stack[-1]["id"] if self._stack else None
        for s in spans:
            t = dict(s)
            t["attrs"] = dict(s.get("attrs") or {})
            if t["id"] > top:
                top = t["id"]
            p = t.get("parent")
            if p is None or p not in present:
                t["parent"] = new_parent
            else:
                t["parent"] = p + offset
            t["id"] += offset
            self._push(t)
        self._next_id = offset + top + 1

    def _push(self, span: dict) -> None:
        if len(self._spans) == self.capacity:
            self.evicted += 1
        self._spans.append(span)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._spans)

    @property
    def spans(self) -> list[dict]:
        """Completed spans, in completion order."""
        return list(self._spans)

    def as_dict(self) -> dict:
        """Picklable snapshot: completed spans plus still-open ones.

        Open spans are included as copies with ``dur`` measured up to
        now (flagged ``"open": True``), so a snapshot taken mid-search
        — or after an exception unwound past an ``end`` — still
        renders a coherent tree.  The tracer itself is not mutated.
        """
        spans = list(self._spans)
        if self._stack:
            now = perf_counter()
            for open_span in self._stack:
                t = dict(open_span)
                t["attrs"] = dict(open_span["attrs"])
                t["dur"] = now - t["ts"]
                t["attrs"]["open"] = True
                spans.append(t)
        return {"spans": spans, "evicted": self.evicted}


def maybe_span(tracer: SpanTracer | None, name: str, cat: str = "span", **attrs):
    """``tracer.span(...)`` or a no-op context when tracing is off.

    The one-``None``-check idiom for coarse (per-query) spans, the
    tracing twin of :func:`~repro.obs.metrics.maybe_phase`.
    """
    if tracer is None:
        return nullcontext()
    return tracer.span(name, cat, **attrs)


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def _snapshot(trace: "SpanTracer | Mapping") -> Mapping:
    if isinstance(trace, SpanTracer):
        return trace.as_dict()
    return trace


def _json_safe(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        if isinstance(value, float) and not math.isfinite(value):
            return repr(value)
        return value
    return repr(value)


def chrome_trace(trace: "SpanTracer | Mapping") -> dict:
    """Export a tracer (or snapshot) as a Chrome trace-event document.

    Every span becomes one complete (``"ph": "X"``) event with
    microsecond timestamps relative to the earliest span; ``cat``
    carries the phase taxonomy so Perfetto can filter by category, and
    span attributes land in ``args``.  ``pid`` and ``tid`` are the
    recording process id, which gives each worker process its own lane.
    Load the JSON in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    spans = _snapshot(trace).get("spans", [])
    epoch = min((s["ts"] for s in spans), default=0.0)
    events = []
    for s in sorted(spans, key=lambda s: (s["ts"], s["id"])):
        pid = int(s.get("pid") or 0)
        events.append(
            {
                "name": str(s["name"]),
                "cat": str(s.get("cat") or "span"),
                "ph": "X",
                "ts": (s["ts"] - epoch) * 1e6,
                "dur": max(float(s["dur"]), 0.0) * 1e6,
                "pid": pid,
                "tid": pid,
                "args": {
                    str(k): _json_safe(v)
                    for k, v in (s.get("attrs") or {}).items()
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc) -> int:
    """Strict schema check for :func:`chrome_trace` output.

    Returns the number of events; raises :class:`ValueError` on any
    deviation from the trace-event contract this package emits
    (complete events only, finite non-negative microsecond times,
    integer pid/tid, JSON-scalar args).  The CI observability smoke
    job and the trace tests run generated documents through this — a
    clean pass is the "loads in Perfetto" assertion.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"trace document must be a mapping, got {type(doc).__name__}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document has no traceEvents list")
    if not events:
        raise ValueError("trace document has zero events")
    for i, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise ValueError(f"event {i}: not a mapping")
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args"):
            if key not in event:
                raise ValueError(f"event {i}: missing {key!r}")
        if not isinstance(event["name"], str) or not event["name"]:
            raise ValueError(f"event {i}: bad name {event['name']!r}")
        if not isinstance(event["cat"], str) or not event["cat"]:
            raise ValueError(f"event {i}: bad cat {event['cat']!r}")
        if event["ph"] != "X":
            raise ValueError(f"event {i}: expected complete event, got {event['ph']!r}")
        for key in ("ts", "dur"):
            value = event[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"event {i}: non-numeric {key}")
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"event {i}: bad {key} {value!r}")
        for key in ("pid", "tid"):
            if isinstance(event[key], bool) or not isinstance(event[key], int):
                raise ValueError(f"event {i}: non-integer {key}")
        args = event["args"]
        if not isinstance(args, Mapping):
            raise ValueError(f"event {i}: args not a mapping")
        for k, v in args.items():
            if not isinstance(k, str):
                raise ValueError(f"event {i}: non-string arg key {k!r}")
            if v is not None and not isinstance(v, (bool, int, float, str)):
                raise ValueError(f"event {i}: non-scalar arg {k}={v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"event {i}: non-finite arg {k}={v!r}")
    return len(events)


def render_tree(trace: "SpanTracer | Mapping", limit: int | None = None) -> str:
    """Human-readable indented span tree (``kpj query --trace``).

    Children sort by start time under their parent; spans whose parent
    was evicted from the ring render as roots.  ``limit`` caps the
    number of lines (a truncation notice follows).
    """
    snapshot = _snapshot(trace)
    spans = sorted(snapshot.get("spans", []), key=lambda s: (s["ts"], s["id"]))
    if not spans:
        return "(no spans)"
    by_id = {s["id"]: s for s in spans}
    children: dict[int | None, list[dict]] = {}
    for s in spans:
        parent = s["parent"]
        if parent is not None and parent not in by_id:
            parent = None  # evicted parent: promote to root
        children.setdefault(parent, []).append(s)

    lines: list[str] = []
    truncated = [0]

    def emit(span: dict, depth: int) -> None:
        if limit is not None and len(lines) >= limit:
            truncated[0] += 1
            return
        attrs = span.get("attrs") or {}
        blob = "".join(
            f"  {k}={v:.4g}" if isinstance(v, float) else f"  {k}={v}"
            for k, v in attrs.items()
        )
        lines.append(
            f"{'  ' * depth}{span['name']:<{max(10, 12 - 2 * depth)}}"
            f" {span['dur'] * 1e3:9.3f}ms{blob}"
        )
        for child in children.get(span["id"], ()):
            emit(child, depth + 1)

    for root in children.get(None, ()):
        emit(root, 0)
    if truncated[0] or (limit is not None and len(lines) >= limit):
        hidden = len(spans) - len(lines)
        if hidden > 0:
            lines.append(f"... {hidden} more spans")
    if snapshot.get("evicted"):
        lines.append(f"({snapshot['evicted']} spans evicted by the ring buffer)")
    return "\n".join(lines)


def render_narrative(
    trace: "SpanTracer | Mapping", limit: int | None = None
) -> str:
    """The τ-schedule narrative of one traced query (``kpj explain``).

    One line per ``iterate`` span, in queue-pop order: the verdict
    (``output``, ``test-hit``, ``test-miss`` or ``retire``), the
    subspace prefix, its lower bound, the ``τ`` of its ``test_lb``
    probe (tests only) and the path length (outputs and hits), then a
    ``totals:`` line counting every event per verdict.  ``limit`` caps
    the event lines (a truncation notice follows); the totals always
    cover the whole search.
    """
    snapshot = _snapshot(trace)
    spans = snapshot.get("spans", ())
    taus = {s["parent"]: s["attrs"]["tau"] for s in spans if s["name"] == "test_lb"}
    pops = sorted((s for s in spans if s["name"] == "iterate"), key=lambda s: s["id"])
    counts: dict[str, int] = {}
    lines: list[str] = []
    for span in pops:
        attrs = span["attrs"]
        kind = attrs["verdict"]
        counts[kind] = counts.get(kind, 0) + 1
        if limit is not None and len(lines) >= limit:
            continue
        # A JSON round trip (slow dumps) turns the prefix into a list.
        parts = [
            f"[{kind:9s}] prefix={tuple(attrs['prefix'])}",
            f"lb={attrs['lb']:.4g}",
        ]
        tau = taus.get(span["id"])
        if tau is not None:
            parts.append(f"tau={tau:.4g}")
        if attrs.get("length") is not None:
            parts.append(f"length={attrs['length']:.4g}")
        lines.append("  ".join(parts))
    if limit is not None and len(pops) > limit:
        lines.append(f"... {len(pops) - limit} more events")
    lines.append(
        "totals: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    if snapshot.get("evicted"):
        lines.append(f"({snapshot['evicted']} spans evicted by the ring buffer)")
    return "\n".join(lines)


def folded_stacks(trace: "SpanTracer | Mapping") -> str:
    """Export a tracer (or snapshot) in folded-stack flamegraph format.

    One line per unique span ancestry — ``query;search;test_lb 1234``
    — where the value is the stack's aggregate **self time** in
    integer microseconds (span duration minus child durations), the
    number ``flamegraph.pl``, speedscope, and inferno all consume
    directly.  Spans whose parent was evicted from the ring buffer
    root their own stack, mirroring :func:`render_tree`.  Every span
    contributes at least 1µs so sub-microsecond leaves stay visible in
    the rendered graph; lines are sorted for deterministic output.
    """
    spans = sorted(
        _snapshot(trace).get("spans", []), key=lambda s: (s["ts"], s["id"])
    )
    if not spans:
        return ""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        parent = s["parent"]
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + max(
                float(s["dur"]), 0.0
            )

    def stack_of(span: dict) -> str:
        names: list[str] = []
        node: dict | None = span
        while node is not None:
            names.append(str(node["name"]).replace(";", "_"))
            parent = node["parent"]
            node = by_id.get(parent) if parent is not None else None
        return ";".join(reversed(names))

    totals: dict[str, int] = {}
    for s in spans:
        self_time = max(float(s["dur"]), 0.0) - child_time.get(s["id"], 0.0)
        micros = max(1, int(round(max(self_time, 0.0) * 1e6)))
        stack = stack_of(s)
        totals[stack] = totals.get(stack, 0) + micros
    return "\n".join(f"{stack} {value}" for stack, value in sorted(totals.items()))


def phase_durations(trace: "SpanTracer | Mapping") -> dict[str, float]:
    """Total seconds per *leaf* phase span, keyed by span name.

    Only ``cat == "phase"`` spans count — the leaves of the taxonomy
    (``prepare``/``comp_sp``/``spt_grow``/``test_lb``/``division``/…)
    — so container spans (``query``, ``search``, ``iterate``) never
    double-count their children.  This is what the perf-regression
    harness feeds its per-phase percentiles from.
    """
    totals: dict[str, float] = {}
    for s in _snapshot(trace).get("spans", ()):
        if s.get("cat") != "phase":
            continue
        name = s["name"]
        totals[name] = totals.get(name, 0.0) + max(float(s["dur"]), 0.0)
    return totals
