"""KPJ benchmark: one workload, one run.

Run from the repository root::

    python3 kpjbench/run.py --workload adhoc-destinations --seed 1 --seconds 45 --trace 0

Prints an environment line, then, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list;
with ``--trace 1`` its ``per_layer`` list, from a run that records
spans (written to ``kpjbench/results/``).  Exits 1 when any answer is
wrong, 2 when the repository or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from inputs import WORKLOADS

#: Set-ups per run; setup_s is their median.
SETUP_REPS = {"full": 3, "tiny": 1}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: every workload on the smallest dataset (tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"kpjbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail("run from the repository root: src/repro is missing")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json is missing")
    sys.path.insert(0, str(root / "src"))

    import library
    import serve
    from inputs import workload
    from measure import environment

    w = workload(args.workload, args.size)
    if args.setup_probe:
        print(json.dumps(library.build(w, args.seed)[-1]))
        return 0

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = environment(root)
    runner = serve.run if w.kind == "http" else library.run
    out = runner(root, w, args.size, args.seed, args.seconds, bool(args.trace),
                 SETUP_REPS[args.size])
    tally, details, measured = out["tally"], out["details"], out["metrics"]
    env["kernel"] = details.pop("kernel")

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return fail(f"metrics not measured: {missing}")
    results = root / "kpjbench" / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = details.pop("spans", None)
    if spans is not None:
        spans.dump(results / f"{stem}.spans.json")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "env": env, "details": details,
        "failures": tally.reasons, "measured": measured,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    for reason in tally.reasons:
        print(f"kpjbench: wrong answer: {reason}", file=sys.stderr)

    correct = tally.failed == 0
    print(json.dumps({"env": env, "closed_samples": details["closed_samples"],
                      "open_samples": details["open_samples"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
