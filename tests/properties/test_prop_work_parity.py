"""Work-counter parity with and without scipy over the pinned corpus.

Whole-graph sweeps (landmark SSSP, DA-SPT's full SPT) run on scipy's C
Dijkstra where scipy imports and on a Python loop where it does not —
the two CI stacks.  Neither records per-node counters, so
:data:`repro.core.stats.WORK_PARITY_FIELDS` (relaxations, heap
pushes/pops, settled nodes, TestLB verdict tallies, …) and the paths
must agree **exactly** between the two for any one query.  Every
committed corpus case runs both ways with the algorithm rotated per
case (the harness convention); ``tests/fuzz/test_corpus_pins.py``
pins the values themselves.
"""

from __future__ import annotations

import pytest

from repro.core.kpj import ALGORITHMS
from repro.core.stats import WORK_PARITY_FIELDS
from repro.fuzz import seed_corpus_cases
from repro.fuzz.generators import sequence_hash
from repro.fuzz.oracles import build_solver, run_query
from repro.pathing import flat

_CASES = list(seed_corpus_cases())
_ALGOS = sorted(ALGORITHMS)


def _algorithm_for(index: int) -> str:
    return _ALGOS[index % len(_ALGOS)]


def work_parity_failures(case, algorithm, monkeypatch) -> list[str]:
    """Solve ``case`` with scipy (where installed) and on the Python
    loop; one message per diverging counter or differing answer."""
    answers = []
    for scipy in (flat.HAVE_SCIPY, False):
        monkeypatch.setattr(flat, "HAVE_SCIPY", scipy)
        result = run_query(build_solver(case, cached=True), case, algorithm)
        answers.append(
            (
                sequence_hash(result.paths),
                {f: getattr(result.stats, f) for f in WORK_PARITY_FIELDS},
            )
        )
    monkeypatch.undo()
    (paths_a, work_a), (paths_b, work_b) = answers
    failures = [
        f"{algorithm}: {name} diverges — scipy={work_a[name]} python={work_b[name]}"
        for name in WORK_PARITY_FIELDS
        if work_a[name] != work_b[name]
    ]
    if paths_a != paths_b:
        failures.append(f"{algorithm}: paths differ with and without scipy")
    return failures


@pytest.mark.parametrize(
    "index,name", [(i, name) for i, (name, _) in enumerate(_CASES)]
)
def test_corpus_case_work_parity(index, name, monkeypatch):
    case = _CASES[index][1]
    failures = work_parity_failures(case, _algorithm_for(index), monkeypatch)
    assert not failures, failures


@pytest.mark.parametrize("algorithm", _ALGOS)
def test_all_algorithms_work_parity_on_one_case(algorithm, monkeypatch):
    """Every registry entry holds parity on at least one dense case."""
    by_name = dict(_CASES)
    case = by_name.get("near-clique-5", _CASES[0][1])
    failures = work_parity_failures(case, algorithm, monkeypatch)
    assert not failures, failures


def test_da_spt_parity_on_zero_weight_ties(monkeypatch):
    """Fuzz-found regression (seed 0, case 87, shrunk to 11 nodes).

    On near-clique graphs with zero-weight edges the backward SPT has
    many equally-shortest trees; scipy's C loop and a Python loop pick
    different ones, so DA-SPT's Pascoal simplicity check used to pass
    on one build and fall through to the counted Gao A* on the other
    (``shortest_path_computations`` 1 vs 0, ``edges_relaxed`` 5 vs 0).
    Canonicalised successor pointers
    (:func:`repro.pathing.spt.canonical_next_hops`) make the tree —
    and therefore the counters — independent of which loop ran.
    """
    from repro.fuzz.generators import FuzzCase

    case = FuzzCase.from_dict(
        {
            "kind": "kpj",
            "n": 11,
            "edges": [
                [0, 4, 1.0],
                [1, 10, 1.0],
                [2, 9, 0.0],
                [3, 5, 0.0],
                [3, 7, 0.0],
                [4, 8, 0.0],
                [5, 0, 0.0],
                [6, 9, 0.0],
                [7, 2, 1.0],
                [8, 3, 1.0],
                [8, 6, 0.0],
                [10, 8, 0.0],
            ],
            "sources": [1],
            "destinations": [9],
            "k": 1,
            "alpha": 1.1,
            "seed": 87,
            "shape": "near_clique",
        }
    )
    failures = work_parity_failures(case, "da-spt", monkeypatch)
    assert not failures, failures
