"""Recompute ``kpjbench/digests.json``, the pinned length digests.

Run from the repository root::

    python3 kpjbench/pin_digests.py --seeds 0-199

For each workload and seed, solves the first closed-loop queries
in-process with the library defaults (the answers ``kpj serve`` gives
too), checks every answer and a Yen prefix of the first few, and pins
the digest of their length lists.  Lengths are canonical (ties between
paths do not change them), so any correct solver reproduces the pins.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

YEN_CHECKED = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-199", help="inclusive range, e.g. 0-199")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    sys.path.insert(0, str(Path.cwd() / "src"))

    from repro.core.kpj import KPJSolver
    from repro.datasets.registry import road_network

    from checks import DIGEST_QUERIES, PINNED_DIGESTS, AnswerChecker, length_digest, yen_mismatch
    from inputs import WORKLOADS, queries, take
    from library import solve

    table: dict[str, dict[str, str]] = {}
    for name, w in WORKLOADS.items():
        dataset = road_network(w.dataset)
        solver = KPJSolver(dataset.graph, dataset.categories)
        cats = {c: frozenset(dataset.categories.nodes_of(c)) for c in w.categories}
        checker = AnswerChecker(dataset.graph)
        for seed in seeds:
            lists = []
            for i, q in enumerate(take(queries(w, dataset.n, cats, seed, "closed"), DIGEST_QUERIES)):
                result = solve(solver, q)
                dest = cats[q["category"]] if "category" in q else frozenset(q["destinations"])
                reason = checker.check(q, dest, [(p.length, p.nodes) for p in result.paths])
                if reason is None and i < YEN_CHECKED:
                    reason = yen_mismatch(dataset.graph, q, sorted(dest), list(result.lengths))
                if reason is not None:
                    print(f"{name} seed {seed} query {i}: {reason}", file=sys.stderr)
                    return 1
                lists.append(list(result.lengths))
            table.setdefault(name, {})[str(seed)] = length_digest(lists)
        print(f"{name}: pinned {len(seeds)} seeds", file=sys.stderr)
    PINNED_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
