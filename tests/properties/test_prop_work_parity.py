"""Cross-kernel work-counter parity over the pinned fuzz corpus.

The dict and flat kernels claim to execute the *same* algorithm, and
the uniform work counters make that claim falsifiable:
:data:`repro.core.stats.WORK_PARITY_FIELDS` (relaxations, heap
pushes/pops, settled nodes, TestLB verdict tallies, …) must agree
**exactly** — not approximately — across both substrates for any one
query.  Every committed corpus case runs through
:func:`repro.fuzz.invariants.work_parity_failures` with the algorithm
rotated per case (the harness convention).
"""

from __future__ import annotations

import pytest

from repro.core.kpj import ALGORITHMS
from repro.fuzz import seed_corpus_cases
from repro.fuzz.invariants import work_parity_failures

_CASES = list(seed_corpus_cases())
_ALGOS = sorted(ALGORITHMS)


def _algorithm_for(index: int) -> str:
    return _ALGOS[index % len(_ALGOS)]


@pytest.mark.parametrize(
    "index,name", [(i, name) for i, (name, _) in enumerate(_CASES)]
)
def test_corpus_case_work_parity(index, name):
    case = _CASES[index][1]
    failures = work_parity_failures(case, _algorithm_for(index))
    assert not failures, failures


@pytest.mark.parametrize("algorithm", _ALGOS)
def test_all_algorithms_work_parity_on_one_case(algorithm):
    """Every registry entry holds parity on at least one dense case."""
    by_name = dict(_CASES)
    case = by_name.get("near-clique-5", _CASES[0][1])
    failures = work_parity_failures(case, algorithm)
    assert not failures, failures


def test_da_spt_parity_on_zero_weight_ties():
    """Fuzz-found regression (seed 0, case 87, shrunk to 11 nodes).

    On near-clique graphs with zero-weight edges the backward SPT has
    many equally-shortest trees; the scipy build and the dict build
    used to pick different ones, so DA-SPT's Pascoal simplicity check
    passed on one kernel and fell through to the counted Gao A* on
    another (``shortest_path_computations`` dict=1 vs flat=0,
    ``edges_relaxed`` 5 vs 0).  Canonicalised
    successor pointers (:func:`repro.pathing.spt.canonical_next_hops`)
    make the tree — and therefore the counters — kernel-independent.
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
    failures = work_parity_failures(case, "da-spt")
    assert not failures, failures


def test_parity_failures_report_kernel_and_counter():
    """A fabricated divergence names the counter and both kernels."""
    from repro.core.stats import SearchStats
    from repro.fuzz import invariants

    calls = []

    def fake_run_query(solver, case, algorithm):
        calls.append(None)
        stats = SearchStats(heap_pushes=len(calls))

        class R:
            pass

        r = R()
        r.stats = stats
        return r

    original = invariants.run_query
    invariants.run_query = fake_run_query
    try:
        failures = invariants.work_parity_failures(_CASES[0][1], _ALGOS[0])
    finally:
        invariants.run_query = original
    assert any("heap_pushes" in f and "dict=1" in f for f in failures)
