"""Metamorphic invariants hold on oracle-sized and large instances."""

import pytest

from repro.fuzz import generate_case
from repro.fuzz.invariants import check_invariants
from repro.fuzz.generators import simplified
from repro.fuzz.oracles import check_against_oracles, oracle_expectation


class TestInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_large_case_invariants_hold(self, seed):
        case = generate_case(seed, min_nodes=20, max_nodes=30)
        failures = check_invariants(case)
        assert not failures, "\n".join(failures)

    def test_invariants_also_hold_on_small_cases(self):
        # The invariant suite must agree with the oracle suite on
        # instances small enough to run both.
        case = generate_case(10)
        assert not check_invariants(case)
        assert not check_against_oracles(case)

    def test_broken_relation_is_flagged(self, monkeypatch):
        # Sabotage the independent Yen oracle: the G_Q-transform
        # equivalence check must notice the lengths no longer match.
        import repro.fuzz.invariants as inv

        case = generate_case(3, shape="grid", min_nodes=20, max_nodes=25)
        assert not inv.check_invariants(case)
        monkeypatch.setattr(inv, "_yen_lengths", lambda c: (123.0,))
        failures = inv.check_invariants(case)
        assert any("gq_transform" in f for f in failures)


class TestOracleExpectation:
    def test_expectation_counts_and_ties(self):
        # Three tied shortest paths, k=2: lengths pinned, admissible
        # set contains all three.
        case = simplified(
            generate_case(0),
            n=5,
            edges=(
                (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
                (1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0),
            ),
            kind="ksp",
            sources=(0,),
            destinations=(4,),
            k=2,
        )
        expectation = oracle_expectation(case)
        assert expectation.lengths == (2.0, 2.0)
        assert len(expectation.admissible) == 3

    def test_empty_when_unreachable(self):
        case = simplified(
            generate_case(0),
            n=3,
            edges=((1, 0, 1.0),),
            kind="ksp",
            sources=(0,),
            destinations=(2,),
            k=3,
        )
        expectation = oracle_expectation(case)
        assert expectation.lengths == ()
        assert not expectation.admissible
