"""Benchmark records: every ``benchmarks/results/BENCH_*.json`` file.

Each file — ``BENCH_trajectory`` (``benchmarks/regression.py``),
``BENCH_loadtest`` (``kpj loadtest``), ``BENCH_kernels`` and
``BENCH_iterbound`` (the substrate and engine benchmarks) — is a JSON
list that only grows.  :func:`stamp` gives a new entry its provenance,
:func:`load` and :func:`append` read and write a file, and
:func:`latest` picks a baseline: both gates' matching rules are calls
of it.  The rest renders the files for ``kpj report`` (latency history
per protocol, the latest entry's phases, and the work-counter deltas of
:func:`render_work_deltas`, also the perf gate's CI artifact), marking
entries measured on a dirty tree.

Work counters are whole-query totals grouped under the phase that
primarily drives them (the §3g taxonomy): ``comp_sp`` owns the
shortest-path computations, ``test_lb`` owns the bounded-search work
(settles, relaxations, heap traffic, verdict tallies, batch
occupancy), ``spt_grow`` the tree size, ``division`` the subspace
bookkeeping, ``prepare`` the cache traffic.  Counters are exact and
deterministic (``fuzz/corpus_pins.json`` pins them across commits), so
any delta here is an algorithmic change, not noise — which is why the
gate *reports* them but latency alone decides pass/fail.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.exceptions import QueryError

__all__ = [
    "stamp",
    "load",
    "append",
    "latest",
    "host_note",
    "WORK_PHASE_FIELDS",
    "work_snapshot",
    "render_trajectory_report",
    "render_work_deltas",
    "render_loadtest_report",
]

#: Where :func:`stamp` asks git about the measured tree: the checkout
#: this package was imported from.
_GIT_DIR = Path(__file__).resolve().parent


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, check=True,
            cwd=_GIT_DIR,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def stamp() -> dict:
    """Provenance for a new entry: ``sha``, ``dirty``, ``date``,
    ``python`` and ``host`` (usable CPUs, CPU model, scipy version).

    ``dirty`` is true when ``git status --porcelain`` lists a path
    outside ``benchmarks/results/``: the entry measured uncommitted
    code, not the commit named.  Outside a checkout ``sha`` is
    ``"unknown"`` and ``dirty`` is ``None``.
    """
    head = _git("rev-parse", "HEAD")
    status = _git(
        "status", "--porcelain", "--", ":/", ":(top,exclude)benchmarks/results"
    )
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 0
    try:
        import scipy
    except ImportError:
        scipy = None
    return {
        "sha": head.strip() if head else "unknown",
        "dirty": bool(status.strip()) if status is not None else None,
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "host": {
            "cpus": cpus,
            "cpu": _cpu_model(),
            "scipy": scipy.__version__ if scipy is not None else None,
        },
    }


def load(path: str | os.PathLike) -> list[dict]:
    """A benchmark file's entries; none when it is missing or blank.

    Malformed JSON, or a document that is not a list, raises
    :class:`~repro.exceptions.QueryError` naming the file.
    """
    p = Path(path)
    if not p.exists():
        return []
    text = p.read_text()
    if not text.strip():
        return []
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QueryError(f"malformed trajectory {str(path)!r}: {exc}") from None
    if not isinstance(entries, list):
        raise QueryError(f"trajectory {str(path)!r} is not a list of entries")
    return entries


def append(path: str | os.PathLike, entry: Mapping) -> list[dict]:
    """Add ``entry`` to the file at ``path`` (rewritten whole as an
    indent-2 JSON list) and return all its entries."""
    entries = load(path)
    entries.append(dict(entry))
    Path(path).write_text(json.dumps(entries, indent=2) + "\n")
    return entries


def latest(entries: Sequence[Mapping], **fields: Any) -> dict | None:
    """The newest entry whose every named field equals the given value.

    ``latest(entries, protocol=PROTOCOL)`` is the perf gate's baseline;
    ``latest(entries, spec=spec.as_dict(), target="service")`` is the
    SLO gate's.  ``None`` when no entry matches.
    """
    for entry in reversed(entries):
        if all(entry.get(name) == value for name, value in fields.items()):
            return entry
    return None


def _host_label(host: Mapping | None) -> str:
    if not host:
        return "unknown"
    scipy = host.get("scipy")
    return (
        f"{host.get('cpus', '?')} CPUs, {host.get('cpu', '?')}, "
        f"{'scipy ' + scipy if scipy else 'no scipy'}"
    )


def host_note(entry: Mapping, baseline: Mapping) -> str | None:
    """One line naming the baseline's host when it is not this entry's.

    Entries recorded before hosts were stamped show as ``unknown``.
    ``None`` when both were measured on the same host.
    """
    if entry.get("host") == baseline.get("host"):
        return None
    return (
        f"baseline host: {_host_label(baseline.get('host'))} "
        f"(this run: {_host_label(entry.get('host'))})"
    )


def _sha_cell(entry: Mapping) -> str:
    sha = str(entry.get("sha", "?"))[:12]
    return f"{sha} (dirty)" if entry.get("dirty") else sha


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
    # Entries recorded since the dict kernel was deleted carry no
    # kernel label: they ran on the one (flat) substrate.
    kernel = (entry.get("protocol") or {}).get("kernel", "flat")
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
                f"| {entry.get('date', '?')} | {_sha_cell(entry)} "
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
            f"`{spec.get('kernel', 'flat')}` kernel, "
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
                f"| {entry.get('date', '?')} | {_sha_cell(entry)} "
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
                 "protocol": {"kernel": spec.get("kernel", "flat")}},
                {"work": (previous or {}).get("work")} if previous else None,
            )
        )
        out.append("")
    return "\n".join(out).rstrip() + "\n"
