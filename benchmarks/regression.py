"""Continuous perf-regression harness (BENCH_trajectory.json).

Runs a **pinned** small workload — COL, category T2, eight fixed
sources, ``k=64``, eight landmarks, ``iter-bound-spti`` — with a
tracer attached, and derives per-phase latencies from each query's
event record (:func:`repro.obs.tracing.phase_durations`, which sums
only the ``cat == "phase"`` leaves, so containers never
double-count).  The protocol keeps the ``"kernel": "flat"`` label of
the trajectory it continues: the flat search substrate is the only one
now, so its committed entries stay the baseline.  (Committed ``dict``
and ``native`` entries from earlier substrates stay in the file as
history; no protocol measures them now.)  Each invocation either:

* ``--update`` — appends one trajectory entry (the
  :func:`repro.bench.trajectory.stamp` fields — git SHA, dirty flag,
  UTC date, Python, host — per-phase p50/p95 across the workload's queries,
  total-query percentiles, the per-phase **work counters** of the §3g
  taxonomy, and a checksum of every returned path) to
  ``benchmarks/results/BENCH_trajectory.json``;
* ``--check`` (the default) — re-measures the workload and compares
  it against the **latest committed entry with the same protocol**
  (:func:`repro.bench.trajectory.latest`; the gate output names the
  baseline's host when it is not this one):
  any phase whose baseline p50 is at least ``MIN_PHASE_MS`` and whose
  new p50 exceeds ``THRESHOLD`` (1.25×) the baseline fails the gate,
  as does any change to the paths checksum (a perf harness that
  silently computes different answers is worse than a slow one).
  A workload with no committed baseline yet is reported and skipped.
  Every run additionally writes ``results/work_counter_deltas.md`` —
  the work counters of the workload against its committed baseline (reported,
  never gated: counters are deterministic, so a delta is an
  algorithmic change to review, not noise; ``kpj report`` renders the
  same story from the committed trajectory).  On failure
  the offending run's records are written to
  ``results/regression_failure.trace.json`` as one Chrome trace-event
  document (the CI perf-gate job uploads it as an artifact) and the
  process exits non-zero.

Noise control: every query is measured ``REPS`` times (default 5)
and the minimum per phase is kept — the minimum estimates the
noise-free cost, which is the right statistic for a regression gate —
and phases cheaper than ``MIN_PHASE_MS`` at baseline are reported but
never gated (a 0.1 ms phase doubling under scheduler jitter is not a
regression).  A check that would fail re-measures the whole workload
once and keeps the elementwise minimum before deciding, so a transient
load spike on the runner needs to survive two full passes to block a
merge.  The workload is deliberately small (< 10 s end to end) so the
gate can run on every push.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.trajectory import (  # noqa: E402
    accumulate_work,
    append,
    host_note,
    latest,
    load,
    render_work_deltas,
    stamp,
)
from repro.core.kpj import KPJSolver  # noqa: E402
from repro.datasets.registry import road_network  # noqa: E402
from repro.obs.tracing import (  # noqa: E402
    SpanTracer,
    chrome_trace,
    phase_durations,
)

RESULTS_DIR = Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_trajectory.json"
FAILURE_TRACE = RESULTS_DIR / "regression_failure.trace.json"
#: Work-counter delta table vs baseline — written on every run; the
#: CI perf-gate job uploads it as an artifact so counter drift is
#: reviewable even when latency passes.
WORK_DELTAS = RESULTS_DIR / "work_counter_deltas.md"

#: p50 growth beyond this factor fails the gate.
THRESHOLD = 1.25
#: Phases cheaper than this at baseline are never gated (noise floor).
MIN_PHASE_MS = 0.5
#: Per-query repetitions; the per-phase minimum is kept.
REPS = int(os.environ.get("REPRO_REGRESSION_REPS", "5"))

#: The pinned workload (protocol v1, unchanged since the first
#: trajectory entry).  Changing ANY of these invalidates the
#: trajectory — bump the protocol version and start fresh.
PROTOCOL = {
    "version": 1,
    "dataset": "COL",
    "category": "T2",
    "sources": [10, 500, 1500, 3000, 5000, 7500, 10000, 14000],
    "k": 64,
    "landmarks": 8,
    "algorithm": "iter-bound-spti",
    "kernel": "flat",
}


def _percentiles(values_ms: list[float]) -> dict[str, float]:
    ordered = sorted(values_ms)
    p95_at = min(len(ordered) - 1, round(0.95 * (len(ordered) - 1)))
    return {"p50_ms": statistics.median(ordered), "p95_ms": ordered[p95_at]}


def run_workload(spec: dict = PROTOCOL) -> tuple[dict, str, list[dict], dict]:
    """Measure one pinned workload.

    Returns ``(per-phase percentiles, paths checksum, last-rep
    records, work block)`` — the records back the failure artifact; the work block is the workload's summed rep-0 work
    counters grouped per phase (deterministic, so one rep suffices —
    the corpus pins hold them fixed across commits).
    """
    dataset = road_network(spec["dataset"])
    solver = KPJSolver(
        dataset.graph,
        dataset.categories,
        landmarks=spec["landmarks"],
        tracer=SpanTracer(),
    )
    # Warm-up: landmark caches, prepared category, allocator.
    for source in spec["sources"]:
        solver.top_k(
            source, category=spec["category"], k=spec["k"],
            algorithm=spec["algorithm"],
        )

    checksum = hashlib.sha256()
    per_phase: dict[str, list[float]] = {}
    traces: list[dict] = []
    work: dict = {}
    for source in spec["sources"]:
        best: dict[str, float] = {}
        last_trace: dict | None = None
        for rep in range(REPS):
            result = solver.top_k(
                source, category=spec["category"], k=spec["k"],
                algorithm=spec["algorithm"],
            )
            phases = phase_durations(result.trace)
            phases["total"] = result.elapsed_ms / 1e3
            for name, seconds in phases.items():
                ms = seconds * 1e3
                if name not in best or ms < best[name]:
                    best[name] = ms
            last_trace = result.trace
            if rep == 0:
                accumulate_work(work, result.stats)
                for path in result.paths:
                    checksum.update(
                        f"{source}:{path.length:.9f}:{path.nodes}".encode()
                    )
        traces.append(last_trace)
        for name, ms in best.items():
            per_phase.setdefault(name, []).append(ms)

    phases = {name: _percentiles(values) for name, values in per_phase.items()}
    return phases, checksum.hexdigest(), traces, work


def make_entry(spec: dict = PROTOCOL) -> tuple[dict, list[dict]]:
    phases, checksum, traces, work = run_workload(spec)
    entry = {
        **stamp(),
        "protocol": spec,
        "reps": REPS,
        "phases": phases,
        "work": work,
        "paths_checksum": checksum,
    }
    return entry, traces


def check(entry: dict, baseline: dict) -> list[str]:
    """Gate ``entry`` against ``baseline``; returns failure messages."""
    failures: list[str] = []
    if baseline.get("protocol") != entry["protocol"]:
        return [
            "workload protocol changed — refresh the trajectory with --update"
        ]
    if baseline.get("paths_checksum") != entry["paths_checksum"]:
        failures.append(
            "paths checksum mismatch: the workload now returns different "
            f"answers (baseline {baseline.get('paths_checksum', '?')[:12]}…, "
            f"now {entry['paths_checksum'][:12]}…)"
        )
    base_phases = baseline.get("phases", {})
    for name, base in sorted(base_phases.items()):
        now = entry["phases"].get(name)
        if now is None:
            failures.append(f"phase {name!r} disappeared from the trace")
            continue
        if base["p50_ms"] < MIN_PHASE_MS:
            continue  # below the noise floor: report-only
        ratio = now["p50_ms"] / base["p50_ms"] if base["p50_ms"] else float("inf")
        if ratio > THRESHOLD:
            failures.append(
                f"phase {name!r} regressed {ratio:.2f}x at p50 "
                f"({base['p50_ms']:.3f} ms -> {now['p50_ms']:.3f} ms, "
                f"threshold {THRESHOLD}x)"
            )
    return failures


def _print_entry(entry: dict, baseline: dict | None) -> None:
    spec = entry["protocol"]
    print(f"workload: {spec['dataset']}/{spec['category']} "
          f"x{len(spec['sources'])} sources, k={spec['k']}, "
          f"{spec['algorithm']} ({spec['kernel']} kernel), "
          f"best-of-{entry['reps']}")
    base_phases = (baseline or {}).get("phases", {})
    width = max(len(n) for n in entry["phases"])
    for name in sorted(entry["phases"]):
        now = entry["phases"][name]
        line = (
            f"  {name:<{width}}  p50 {now['p50_ms']:8.3f} ms"
            f"  p95 {now['p95_ms']:8.3f} ms"
        )
        base = base_phases.get(name)
        if base and base["p50_ms"]:
            ratio = now["p50_ms"] / base["p50_ms"]
            gated = base["p50_ms"] >= MIN_PHASE_MS
            line += f"  ({ratio:5.2f}x vs baseline{'' if gated else ', not gated'})"
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--update", action="store_true",
        help="append a trajectory entry instead of gating",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="gate against the last committed entry (default)",
    )
    args = parser.parse_args(argv)

    trajectory = load(TRAJECTORY)
    entry, traces = make_entry()
    baseline = latest(trajectory, protocol=PROTOCOL)

    # Work-counter delta artifact, written in every mode: the counters
    # are exact and deterministic, so any drift against the committed
    # baseline is an algorithmic change worth reviewing even when the
    # latency gate passes.  Reported, never gated.
    RESULTS_DIR.mkdir(exist_ok=True)
    WORK_DELTAS.write_text(
        "# Work-counter deltas vs committed baseline\n\n"
        + render_work_deltas(entry, baseline) + "\n"
    )
    print(f"work-counter delta table -> {WORK_DELTAS}")

    if args.update:
        _print_entry(entry, baseline)
        append(TRAJECTORY, entry)
        print(f"recorded 1 entry ({entry['sha'][:12]}) -> {TRAJECTORY}")
        return 0

    if not trajectory:
        print(f"no trajectory at {TRAJECTORY}; run with --update first",
              file=sys.stderr)
        return 2
    if baseline is None:
        print("no baseline for the workload yet; run with --update "
              "to record one (skipped)")
        return 0
    failures = check(entry, baseline)
    if failures:
        # Second chance: a loaded runner inflates every phase at
        # once.  Re-measure and keep the per-phase minimum.
        print("gate would fail; re-measuring once to rule out "
              "runner load", file=sys.stderr)
        retry, retry_traces = make_entry()
        for name, now in retry["phases"].items():
            old = entry["phases"].get(name)
            if old is None or now["p50_ms"] < old["p50_ms"]:
                entry["phases"][name] = now
        if entry["paths_checksum"] != retry["paths_checksum"]:
            failures = ["paths checksum unstable across two passes"]
        else:
            traces = retry_traces
            failures = check(entry, baseline)
    _print_entry(entry, baseline)
    note = host_note(entry, baseline)
    if not failures:
        print(f"perf gate OK vs {baseline['sha'][:12]} "
              f"({baseline['date']})")
        if note is not None:
            print(f"  {note}")
        return 0
    print(f"\nPERF GATE FAILED vs {baseline['sha'][:12]} "
          f"({baseline['date']}):", file=sys.stderr)
    if note is not None:
        print(f"  {note}", file=sys.stderr)
    for failure in failures:
        print(f"  - {failure}", file=sys.stderr)
    # One Chrome document with every query's last-rep record.
    FAILURE_TRACE.write_text(json.dumps(chrome_trace(traces)) + "\n")
    print(f"  span timeline written to {FAILURE_TRACE}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
