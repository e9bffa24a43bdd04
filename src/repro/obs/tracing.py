"""Per-query event records and the span views built from them.

:class:`~repro.obs.metrics.MetricsRegistry` answers *how much* time
each phase costs in aggregate; the record answers *why one query was
slow*: which subspaces were divided, which ``TestLB`` calls missed the
threshold, how the ``τ = α·τ`` schedule interacted with tree growth.
Both come from the same intervals: a query's search code times each
interval once and appends one event tuple to the query's **record**,

    {"pid": os.getpid(), "events": [(name, start, end, attrs), ...]}

with :func:`time.perf_counter` times (``CLOCK_MONOTONIC``: one
machine-wide clock, so parent- and worker-process records share a
timeline).  The solver folds a record into its per-query registry —
the sums of its phase events (:func:`phase_totals`, the one summing
rule) and its peaks (:data:`PEAKS`), with :func:`fold` — and, when a
:class:`SpanTracer` is attached, keeps it.  Nothing in a record names
a parent: containers (``query``, ``search``, ``iter_bound``,
``batch``) are appended when they close, after their children, and
nesting is worked out on export from interval containment.  A record
is plain data, so it pickles across the worker process boundary; a
JSON round trip (slow dumps, ``--json``) turns its tuples into lists,
and every reader here accepts both.

Dict spans — ``{"id", "parent", "name", "cat", "ts", "dur", "pid",
"attrs"}`` — exist only on export, built by :func:`spans`, which every
view reads:

* :func:`chrome_trace` — Chrome trace-event JSON (the ``"X"``
  complete-event flavour) loadable in ``chrome://tracing`` or
  Perfetto, with one ``pid`` lane per worker process;
* :func:`render_tree` — a human-readable indented tree
  (``kpj query --trace``);
* :func:`render_narrative` — the τ-schedule narrative of one
  iteratively bounding query, one line per queue pop
  (``kpj explain``);
* :func:`folded_stacks` — flamegraph input.

Recording is off unless a registry or a tracer is attached to the
solver: the disabled path costs one ``None`` check per site and
allocates nothing (a unit test asserts it).  :data:`EVENTS` is the
event taxonomy; DESIGN.md §3d states the contract.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import Mapping

__all__ = [
    "EVENTS",
    "PEAKS",
    "RECORDS_KEPT",
    "SpanTracer",
    "new_record",
    "spans",
    "chrome_trace",
    "validate_chrome_trace",
    "render_tree",
    "render_narrative",
    "folded_stacks",
    "phase_totals",
    "phase_durations",
    "fold",
]

#: Records a :class:`SpanTracer` keeps, newest last.
RECORDS_KEPT = 1024

#: Event name -> ``(cat, attribute names)``.  An event's ``attrs`` is
#: ``None`` (no attributes), the value itself for a one-name entry, or
#: a tuple in this order; a shorter tuple leaves the trailing names
#: unset.  A ``test_lb`` or ``division`` event carries its queue pop
#: after its own values — ``(prefix, length)`` (``length`` ``None``
#: unless the test hit) and ``(prefix, lb)`` — from which the export
#: rebuilds the pop's ``iterate`` container.
EVENTS: dict[str, tuple[str, tuple[str, ...]]] = {
    "query": ("query", ("algorithm", "k", "query_id", "paths")),
    "prepare": ("phase", ("cache",)),
    "search": ("search", ()),
    "iter_bound": ("search", ("bound_kind", "leftover", "results", "queue_peak")),
    "iterate": ("search", ("prefix", "depth", "lb", "verdict", "length")),
    "comp_sp": ("phase", ("tree_nodes", "queue_peak")),
    "spt_grow": ("phase", ("tau",)),
    "test_lb": ("phase", ("depth", "lb", "tau", "verdict")),
    "division": ("phase", ("depth", "children", "pruned")),
    "batch": ("batch", ("queries", "workers")),
    "warmup": ("phase", ()),
}

#: Event name -> ``(attribute, gauge)``: the peak an event carries and
#: the registry gauge :func:`fold` keeps its largest value in — the
#: subspace queue of Alg. 4 and the incremental tree's queue of Alg. 7.
PEAKS: dict[str, tuple[str, str]] = {
    "iter_bound": ("queue_peak", "iterbound_queue_peak"),
    "comp_sp": ("queue_peak", "spt_heap_peak"),
}

#: Event name -> ``(index into attrs, gauge)``, from :data:`PEAKS`.
_PEAK_SLOTS = {
    name: (EVENTS[name][1].index(attr), gauge)
    for name, (attr, gauge) in PEAKS.items()
}

#: The leaves :func:`phase_totals` sums; containers never double-count.
_PHASES = frozenset(name for name, (cat, _) in EVENTS.items() if cat == "phase")

#: ``test_lb`` verdict -> the verdict of its pop's ``iterate``.
_ITERATE_VERDICTS = {"hit": "test-hit", "miss": "test-miss", "retire": "retire"}


def new_record() -> dict:
    """An empty record stamped with this process's pid."""
    return {"pid": os.getpid(), "events": []}


class SpanTracer:
    """Where a solver keeps its queries' records.

    Attaching one to a :class:`~repro.core.kpj.KPJSolver` traces every
    query: the query's record rides back on ``QueryResult.trace`` and
    is appended to :attr:`records`, which holds the last
    :data:`RECORDS_KEPT` of them by reference (a
    :func:`~repro.server.service.run_batch` call adds its own ``batch``
    record and its workers' records).  :attr:`spans` is their export.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: deque = deque(maxlen=RECORDS_KEPT)

    @property
    def spans(self) -> list[dict]:
        """The kept records as dict spans (see :func:`spans`)."""
        return spans(self)


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def _records(trace) -> list:
    """A record, a list of records, or a tracer, as a list of records."""
    if isinstance(trace, dict):
        return [trace]
    if trace is None:
        return []
    if isinstance(trace, SpanTracer):
        return list(trace.records)
    return list(trace)


def _attrs(name: str, attrs) -> dict:
    entry = EVENTS.get(name)
    if entry is None or attrs is None:
        return {}
    fields = entry[1]
    if len(fields) == 1:
        return {fields[0]: attrs}
    return dict(zip(fields, attrs))


def _with_pops(events) -> list:
    """``events`` plus each queue pop's ``iterate``, right after the
    ``test_lb`` or ``division`` event that closed the pop.  A test pop
    starts at its ``spt_grow``, when the tree grew first."""
    out = []
    previous = None
    for event in events:
        name, start, end, attrs = event
        out.append(event)
        if name == "test_lb":
            depth, lb, _, verdict, prefix, length = attrs
            if previous is not None and previous[0] == "spt_grow":
                start = previous[1]
            pop = (prefix, depth, lb, _ITERATE_VERDICTS[verdict])
            out.append(("iterate", start, end, pop if length is None else pop + (length,)))
        elif name == "division":
            depth, _, _, prefix, lb = attrs
            out.append(("iterate", start, end, (prefix, depth, lb, "output", lb)))
        previous = event
    return out


def _nested(events) -> tuple[list[int], list[int | None]]:
    """Start order and parent index of each event, by containment.

    Sorted by start, longest first; among identical intervals the
    later-appended event (the container, appended when it closed)
    comes first.  Each event's parent is the innermost earlier event
    whose interval holds it.
    """
    order = sorted(
        range(len(events)), key=lambda i: (events[i][1], -events[i][2], -i)
    )
    parents: list[int | None] = [None] * len(events)
    stack: list[int] = []
    for i in order:
        end = events[i][2]
        while stack and events[stack[-1]][2] < end:
            stack.pop()
        if stack:
            parents[i] = stack[-1]
        stack.append(i)
    return order, parents


def spans(trace) -> list[dict]:
    """Dict spans of a record, a list of records, or a :class:`SpanTracer`.

    Each span is ``{"id", "parent", "name", "cat", "ts", "dur", "pid",
    "attrs"}``, ``ts`` and ``dur`` in seconds, ``cat`` and ``attrs``
    from :data:`EVENTS` (a name missing from it gets ``cat`` ``"span"``
    and no attributes).  Within a record an event nests in the
    innermost event whose interval contains it, and ids follow start
    order.  Across records, a record's root nests in the innermost
    event of another record that contains it — that is how a batch's
    ``query`` trees land under its ``batch`` — but never in a record
    whose roots share its name: resident workers' query records
    overlap each other in time without nesting.
    """
    out: list[dict] = []
    groups: list[tuple[frozenset, list[dict], list[dict]]] = []
    for record in _records(trace):
        pid = int(record.get("pid") or 0)
        events = _with_pops(record["events"])
        order, parents = _nested(events)
        base = len(out)
        rank = {i: base + r for r, i in enumerate(order)}
        mine: list[dict] = []
        for i in order:
            name, start, end, attrs = events[i]
            parent = parents[i]
            mine.append({
                "id": rank[i],
                "parent": None if parent is None else rank[parent],
                "name": name,
                "cat": EVENTS.get(name, ("span",))[0],
                "ts": start,
                "dur": end - start,
                "pid": pid,
                "attrs": _attrs(name, attrs),
            })
        out.extend(mine)
        roots = [s for s in mine if s["parent"] is None]
        groups.append((frozenset(s["name"] for s in roots), roots, mine))
    if len(groups) > 1:
        hosts_of: dict[frozenset, list[dict]] = {}
        for kind, roots, _ in groups:
            hosts = hosts_of.get(kind)
            if hosts is None:
                hosts = hosts_of[kind] = [
                    s for other, _, theirs in groups if kind.isdisjoint(other)
                    for s in theirs
                ]
            for root in roots:
                end = root["ts"] + root["dur"]
                holders = [
                    s for s in hosts
                    if s["ts"] <= root["ts"] and end <= s["ts"] + s["dur"]
                ]
                if holders:
                    root["parent"] = min(
                        holders, key=lambda s: (s["dur"], -s["id"])
                    )["id"]
    return out


def _json_safe(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        if isinstance(value, float) and not math.isfinite(value):
            return repr(value)
        return value
    return repr(value)


def chrome_trace(trace) -> dict:
    """Export records (anything :func:`spans` takes) as a Chrome
    trace-event document.

    Every span becomes one complete (``"ph": "X"``) event with
    microsecond timestamps relative to the earliest span; ``cat``
    carries the taxonomy so Perfetto can filter by category, and span
    attributes land in ``args``.  ``pid`` and ``tid`` are the recording
    process id, which gives each worker process its own lane.  Load
    the JSON in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    all_spans = spans(trace)
    epoch = min((s["ts"] for s in all_spans), default=0.0)
    events = []
    for s in sorted(all_spans, key=lambda s: (s["ts"], s["id"])):
        events.append(
            {
                "name": str(s["name"]),
                "cat": s["cat"],
                "ph": "X",
                "ts": (s["ts"] - epoch) * 1e6,
                "dur": max(float(s["dur"]), 0.0) * 1e6,
                "pid": s["pid"],
                "tid": s["pid"],
                "args": {str(k): _json_safe(v) for k, v in s["attrs"].items()},
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


def render_tree(trace, limit: int | None = None) -> str:
    """Human-readable indented span tree (``kpj query --trace``).

    Children sort by start time under their parent.  ``limit`` caps
    the number of lines (a truncation notice follows).
    """
    all_spans = sorted(spans(trace), key=lambda s: (s["ts"], s["id"]))
    if not all_spans:
        return "(no spans)"
    children: dict[int | None, list[dict]] = {}
    for s in all_spans:
        children.setdefault(s["parent"], []).append(s)

    lines: list[str] = []
    truncated = [0]

    def emit(span: dict, depth: int) -> None:
        if limit is not None and len(lines) >= limit:
            truncated[0] += 1
            return
        blob = "".join(
            f"  {k}={v:.4g}" if isinstance(v, float) else f"  {k}={v}"
            for k, v in span["attrs"].items()
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
        hidden = len(all_spans) - len(lines)
        if hidden > 0:
            lines.append(f"... {hidden} more spans")
    return "\n".join(lines)


def render_narrative(trace, limit: int | None = None) -> str:
    """The τ-schedule narrative of one traced query (``kpj explain``).

    One line per ``iterate`` span, in queue-pop order: the verdict
    (``output``, ``test-hit``, ``test-miss`` or ``retire``), the
    subspace prefix, its lower bound, the ``τ`` of its ``test_lb``
    probe (tests only) and the path length (outputs and hits), then a
    ``totals:`` line counting every event per verdict.  ``limit`` caps
    the event lines (a truncation notice follows); the totals always
    cover the whole search.
    """
    all_spans = spans(trace)
    taus = {
        s["parent"]: s["attrs"]["tau"] for s in all_spans if s["name"] == "test_lb"
    }
    pops = [s for s in all_spans if s["name"] == "iterate"]
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
    return "\n".join(lines)


def folded_stacks(trace) -> str:
    """Export records in folded-stack flamegraph format.

    One line per unique span ancestry — ``query;search;test_lb 1234``
    — where the value is the stack's aggregate **self time** in
    integer microseconds (span duration minus child durations), the
    number ``flamegraph.pl``, speedscope, and inferno all consume
    directly.  Every span contributes at least 1µs so sub-microsecond
    leaves stay visible in the rendered graph; lines are sorted for
    deterministic output.
    """
    all_spans = spans(trace)
    if not all_spans:
        return ""
    by_id = {s["id"]: s for s in all_spans}
    child_time: dict[int, float] = {}
    for s in all_spans:
        parent = s["parent"]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + max(
                float(s["dur"]), 0.0
            )

    def stack_of(span: dict) -> str:
        names: list[str] = []
        node: dict | None = span
        while node is not None:
            names.append(str(node["name"]).replace(";", "_"))
            parent = node["parent"]
            node = by_id[parent] if parent is not None else None
        return ";".join(reversed(names))

    totals: dict[str, int] = {}
    for s in all_spans:
        self_time = max(float(s["dur"]), 0.0) - child_time.get(s["id"], 0.0)
        micros = max(1, int(round(max(self_time, 0.0) * 1e6)))
        stack = stack_of(s)
        totals[stack] = totals.get(stack, 0) + micros
    return "\n".join(f"{stack} {value}" for stack, value in sorted(totals.items()))


def phase_totals(trace) -> dict[str, list]:
    """``[seconds, calls]`` per *leaf* phase event, keyed by name.

    Only ``cat == "phase"`` events count — the leaves of the taxonomy
    (``prepare``/``comp_sp``/``spt_grow``/``test_lb``/``division``/…)
    — so containers (``query``, ``search``, ``iter_bound``) never
    double-count their children.  Reads the events directly, without
    building spans: :func:`fold` adds every recorded query's phases to
    its per-query registry with this.
    """
    totals: dict[str, list] = {}
    get = totals.get
    for record in _records(trace):
        for name, start, end, _ in record["events"]:
            if name in _PHASES:
                entry = get(name)
                if entry is None:
                    totals[name] = [end - start, 1]
                else:
                    entry[0] += end - start
                    entry[1] += 1
    return totals


def phase_durations(trace) -> dict[str, float]:
    """Total seconds per leaf phase (the seconds of :func:`phase_totals`);
    what the perf-regression harness feeds its per-phase percentiles
    from."""
    return {name: seconds for name, (seconds, _) in phase_totals(trace).items()}


def fold(registry, record) -> None:
    """Add one record's phase sums and peaks to ``registry``.

    Phases are :func:`phase_totals`' ``[seconds, calls]``; each peak
    of :data:`PEAKS` that an event carries sets its gauge, which keeps
    the maximum.  An event may stop short of its peak (an ``iter_bound``
    that found no first path, ``SPT_P``'s ``comp_sp``).  Accepts a
    record revived from JSON, whose tuples are lists.  The solver folds
    every recorded query into its per-query registry with this, inside
    the query's ``search`` interval.
    """
    for name, (seconds, calls) in phase_totals(record).items():
        registry.observe_phase(name, seconds, calls)
    for name, _, _, attrs in record["events"]:
        slot = _PEAK_SLOTS.get(name)
        if slot is not None and attrs is not None and len(attrs) > slot[0]:
            registry.set_gauge(slot[1], attrs[slot[0]])
