"""Config-driven load-test harness (BENCH_loadtest.json).

The serving-side counterpart of ``benchmarks/regression.py``: where
the perf gate pins single-query phase latencies, this harness pins
**behaviour under concurrent open-loop load** — tail latency split
into queue wait vs service time, achieved-vs-target throughput,
occupancy, and error counts — for one or more declarative workload
specs (see :mod:`repro.bench.workload` and ``benchmarks/specs/``).

Each invocation replays every ``--spec`` (default: the pinned smoke
spec) on an in-process resident-worker service — or, with ``--url``,
over HTTP against a running ``kpj serve`` — and either:

* ``--update`` — appends one schema-versioned entry per spec to
  ``benchmarks/results/BENCH_loadtest.json``;
* ``--check`` (the default) — replays and evaluates the SLO gate:
  the spec's declared absolute bounds (p99 latency ceiling,
  throughput floor, error budget) plus the regression bound against
  the latest committed entry with the identical spec.  A spec with no
  committed baseline is gated on its absolute bounds only and
  reported.  Any violation exits non-zero.

The arrival schedule is deterministic in the spec's seed (the entry
records its SHA-256), so a baseline comparison is known to have
replayed exactly the same workload; the latencies are the only thing
allowed to differ.  ``kpj report --loadtest`` renders the committed
trajectory as markdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.loadtest import (  # noqa: E402
    baseline_for,
    evaluate_gate,
    load_entries,
    render_entry_summary,
    replay_workload,
)
from repro.bench.workload import load_spec  # noqa: E402
from repro.exceptions import QueryError  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_loadtest.json"
DEFAULT_SPEC = Path(__file__).parent / "specs" / "loadtest_smoke.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--spec",
        action="append",
        metavar="FILE",
        help=f"workload spec file(s), repeatable (default: {DEFAULT_SPEC})",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--update", action="store_true",
        help="append a trajectory entry per spec instead of gating",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="gate against the spec SLO + committed baseline (default)",
    )
    parser.add_argument(
        "--url", metavar="URL", default=None,
        help="replay over HTTP against a running `kpj serve` endpoint "
        "instead of an in-process service",
    )
    args = parser.parse_args(argv)

    spec_paths = args.spec or [str(DEFAULT_SPEC)]
    try:
        specs = [load_spec(path) for path in spec_paths]
    except QueryError as exc:
        print(f"bad workload spec: {exc}", file=sys.stderr)
        return 2
    trajectory = load_entries(str(TRAJECTORY))

    exit_code = 0
    for spec in specs:
        baseline = baseline_for(trajectory, spec.as_dict())
        try:
            entry = replay_workload(
                spec, progress=lambda msg: print(f"# {msg}"), url=args.url
            )
        except QueryError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(render_entry_summary(entry, baseline))
        if args.update:
            trajectory.append(entry)
            continue
        failures = evaluate_gate(entry, spec, baseline)
        if failures:
            print(f"\nSLO GATE FAILED for {spec.name!r}:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            exit_code = 1
        elif baseline is None:
            print(f"slo gate OK for {spec.name!r} "
                  "(no committed baseline yet; absolute bounds only — "
                  "run with --update to record one)")
        else:
            print(f"slo gate OK for {spec.name!r} vs "
                  f"{str(baseline.get('sha', '?'))[:12]} "
                  f"({baseline.get('date', '?')})")

    if args.update:
        RESULTS_DIR.mkdir(exist_ok=True)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"recorded {len(specs)} entr"
              f"{'y' if len(specs) == 1 else 'ies'} -> {TRAJECTORY}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
