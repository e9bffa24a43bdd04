"""Trajectory rendering — BENCH_trajectory.json as a markdown report.

The perf-regression harness (``benchmarks/regression.py``) appends one
entry per pinned workload per ``--update`` run: per-phase p50/p95
latencies, a paths checksum, and — since the work-attribution layer —
the per-phase **work counters** (relaxations, heap traffic, TestLB
verdicts) that explain *why* a latency moved.  This module renders
that file for humans: ``kpj report`` prints the markdown trajectory
(latency history per kernel, the latest entry's phase table, and the
work-counter deltas against the previous entry), and the harness
reuses :func:`render_work_deltas` for the delta table the CI perf-gate
job uploads as an artifact.

Work counters are whole-query totals grouped under the phase that
primarily drives them (the §3g taxonomy): ``comp_sp`` owns the
shortest-path computations, ``test_lb`` owns the bounded-search work
(settles, relaxations, heap traffic, verdict tallies, batch
occupancy), ``spt_grow`` the tree size, ``division`` the subspace
bookkeeping, ``prepare`` the cache traffic.  Counters are exact and
deterministic (the work-parity invariant pins them across kernels), so
any delta here is an algorithmic change, not noise — which is why the
gate *reports* them but latency alone decides pass/fail.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

__all__ = [
    "WORK_PHASE_FIELDS",
    "work_snapshot",
    "render_trajectory_report",
    "render_work_deltas",
    "render_loadtest_report",
]

#: §3g taxonomy: which SearchStats counters ride under which phase in
#: a trajectory entry's ``work`` block.  Keep in sync with
#: :data:`repro.core.stats.WORK_PARITY_FIELDS` (the parity test
#: asserts the union covers it).
WORK_PHASE_FIELDS: dict[str, tuple[str, ...]] = {
    "comp_sp": ("shortest_path_computations",),
    "spt_grow": ("spt_nodes",),
    "test_lb": (
        "lb_tests",
        "lb_test_hits",
        "lb_test_misses",
        "lb_test_retires",
        "lb_test_failures",
        "nodes_settled",
        "edges_relaxed",
        "heap_pushes",
        "heap_pops",
    ),
    "division": (
        "subspaces_created",
        "subspaces_pruned",
        "lower_bound_computations",
    ),
    "prepare": ("prepared_cache_hits", "prepared_cache_misses"),
}


def work_snapshot(stats) -> dict[str, dict[str, int]]:
    """A :class:`~repro.core.stats.SearchStats` as a ``work`` block.

    Phase-grouped totals per :data:`WORK_PHASE_FIELDS`; zero-valued
    counters are kept (a counter dropping *to* zero is exactly the
    kind of change the deltas exist to surface).
    """
    return {
        phase: {field: int(getattr(stats, field)) for field in fields}
        for phase, fields in WORK_PHASE_FIELDS.items()
    }


def _merge_work(into: dict, add: Mapping) -> dict:
    for phase, counters in add.items():
        bucket = into.setdefault(phase, {})
        for field, value in counters.items():
            bucket[field] = bucket.get(field, 0) + int(value)
    return into


def accumulate_work(total: dict, stats) -> dict:
    """Fold one query's counters into a workload-level ``work`` block."""
    return _merge_work(total, work_snapshot(stats))


def _fmt_delta(now: int, base: int | None) -> str:
    if base is None:
        return "(new)"
    if now == base:
        return "="
    sign = "+" if now > base else ""
    pct = f" ({(now - base) / base * 100.0:+.1f}%)" if base else ""
    return f"{sign}{now - base}{pct}"


def render_work_deltas(entry: Mapping, baseline: Mapping | None) -> str:
    """Markdown table of one entry's work counters vs its baseline.

    ``entry``/``baseline`` are trajectory entries; a baseline of
    ``None`` (or one recorded before the work-attribution layer, i.e.
    without a ``work`` block) renders the current values with every
    delta marked ``(new)``.
    """
    work = entry.get("work") or {}
    base_work = (baseline or {}).get("work") or {}
    kernel = (entry.get("protocol") or {}).get("kernel", "?")
    lines = [
        f"### Work counters — `{kernel}` kernel",
        "",
        "| phase | counter | value | Δ vs baseline |",
        "|---|---|---:|---:|",
    ]
    if not work:
        return "\n".join(lines[:2] + ["(entry has no work block)"])
    for phase in sorted(work):
        base_phase = base_work.get(phase) or {}
        for field in sorted(work[phase]):
            now = int(work[phase][field])
            base = base_phase.get(field)
            base = int(base) if base is not None else None
            lines.append(
                f"| {phase} | {field} | {now} | {_fmt_delta(now, base)} |"
            )
    return "\n".join(lines)


def _protocol_key(entry: Mapping) -> str:
    return json.dumps(entry.get("protocol") or {}, sort_keys=True)


def render_trajectory_report(trajectory: Sequence[Mapping]) -> str:
    """The full ``kpj report`` markdown document for a trajectory file.

    One section per pinned workload (grouped by exact protocol, the
    same matching rule the gate uses): the latency history table, the
    latest entry's per-phase p50/p95 with deltas against the previous
    entry, and the work-counter delta table.
    """
    if not trajectory:
        return "# Perf trajectory report\n\n(no entries)"
    groups: dict[str, list[Mapping]] = {}
    for entry in trajectory:
        groups.setdefault(_protocol_key(entry), []).append(entry)
    out = ["# Perf trajectory report", ""]
    for key in sorted(groups, key=lambda k: json.loads(k).get("kernel", "")):
        entries = groups[key]
        spec = json.loads(key)
        latest = entries[-1]
        previous = entries[-2] if len(entries) > 1 else None
        out.append(
            f"## {spec.get('dataset', '?')}/{spec.get('category', '?')} — "
            f"`{spec.get('kernel', '?')}` kernel "
            f"(protocol v{spec.get('version', '?')}, "
            f"{spec.get('algorithm', '?')}, k={spec.get('k', '?')}, "
            f"{len(spec.get('sources', []))} sources)"
        )
        out.append("")
        out.append("| date | sha | total p50 ms | total p95 ms |")
        out.append("|---|---|---:|---:|")
        for entry in entries:
            total = (entry.get("phases") or {}).get("total") or {}
            out.append(
                f"| {entry.get('date', '?')} | {str(entry.get('sha', '?'))[:12]} "
                f"| {total.get('p50_ms', float('nan')):.3f} "
                f"| {total.get('p95_ms', float('nan')):.3f} |"
            )
        out.append("")
        out.append("### Phases (latest entry)")
        out.append("")
        out.append("| phase | p50 ms | p95 ms | Δp50 vs previous |")
        out.append("|---|---:|---:|---:|")
        prev_phases = (previous or {}).get("phases") or {}
        for name in sorted(latest.get("phases") or {}):
            now = latest["phases"][name]
            prev = prev_phases.get(name)
            if prev and prev.get("p50_ms"):
                delta = f"{now['p50_ms'] / prev['p50_ms']:.2f}x"
            else:
                delta = "(new)"
            out.append(
                f"| {name} | {now['p50_ms']:.3f} | {now['p95_ms']:.3f} "
                f"| {delta} |"
            )
        out.append("")
        out.append(render_work_deltas(latest, previous))
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _lt(block: Mapping | None, key: str) -> str:
    value = (block or {}).get(key)
    return "-" if value is None else f"{value:.3f}"


def render_loadtest_report(entries: Sequence[Mapping]) -> str:
    """The ``kpj report --loadtest`` markdown for ``BENCH_loadtest.json``.

    One section per workload spec (grouped by exact spec dict, the
    same matching rule the SLO gate's baseline lookup uses): the
    tail-latency/throughput history table, then the latest entry's
    queue-wait vs service-time breakdown and work-counter deltas
    against the previous entry of the same spec.
    """
    if not entries:
        return "# Load-test trajectory report\n\n(no entries)"
    groups: dict[str, list[Mapping]] = {}
    for entry in entries:
        key = json.dumps(entry.get("spec") or {}, sort_keys=True)
        groups.setdefault(key, []).append(entry)
    out = ["# Load-test trajectory report", ""]
    for key in sorted(groups, key=lambda k: json.loads(k).get("name", "")):
        group = groups[key]
        spec = json.loads(key)
        latest = group[-1]
        previous = group[-2] if len(group) > 1 else None
        out.append(
            f"## {spec.get('name', '?')} — {spec.get('dataset', '?')}, "
            f"`{spec.get('kernel', '?')}` kernel, "
            f"{spec.get('workers', '?')} worker(s), "
            f"{spec.get('target_qps', '?')} qps target "
            f"(skew {(spec.get('skew') or {}).get('kind', '?')}, "
            f"seed {spec.get('seed', '?')})"
        )
        out.append("")
        out.append(
            "| date | sha | qps | p50 ms | p99 ms | p99.9 ms | errors |"
        )
        out.append("|---|---|---:|---:|---:|---:|---:|")
        for entry in group:
            lat = entry.get("latency_ms") or {}
            out.append(
                f"| {entry.get('date', '?')} | {str(entry.get('sha', '?'))[:12]} "
                f"| {entry.get('achieved_qps', 0.0):.2f} "
                f"| {_lt(lat, 'p50')} | {_lt(lat, 'p99')} | {_lt(lat, 'p999')} "
                f"| {(entry.get('errors') or {}).get('count', 0)} |"
            )
        out.append("")
        out.append("### Queue wait vs service time (latest entry)")
        out.append("")
        out.append("| component | p50 ms | p95 ms | p99 ms | p99.9 ms |")
        out.append("|---|---:|---:|---:|---:|")
        for field, label in (
            ("latency_ms", "latency (sojourn)"),
            ("queue_wait_ms", "queue wait"),
            ("service_ms", "service"),
        ):
            block = latest.get(field) or {}
            out.append(
                f"| {label} | {_lt(block, 'p50')} | {_lt(block, 'p95')} "
                f"| {_lt(block, 'p99')} | {_lt(block, 'p999')} |"
            )
        out.append("")
        out.append(
            f"achieved {latest.get('achieved_qps', 0.0):.2f} / "
            f"{latest.get('target_qps', 0.0):g} qps target over "
            f"{latest.get('duration_s', 0.0):.2f} s, occupancy "
            f"{latest.get('occupancy', 0.0):.2f}, schedule "
            f"`{str(latest.get('schedule_sha', '?'))[:12]}`"
        )
        out.append("")
        # render_work_deltas reads protocol.kernel; adapt the spec key.
        out.append(
            render_work_deltas(
                {"work": latest.get("work"),
                 "protocol": {"kernel": spec.get("kernel", "?")}},
                {"work": (previous or {}).get("work")} if previous else None,
            )
        )
        out.append("")
    return "\n".join(out).rstrip() + "\n"
