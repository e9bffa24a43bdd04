"""Shrinker contract: failures preserved, instances minimised."""

from repro.fuzz import MUTATIONS, check_case, generate_case, shrink_case
from repro.fuzz.generators import FuzzCase, simplified


def _failing_case_for(mutation_name):
    """First generated case the planted mutation makes fail."""
    mutation = MUTATIONS[mutation_name]
    for seed in range(200):
        case = generate_case(seed)
        if check_case(case, mutation)[1]:
            return case, mutation
    raise AssertionError("no failing case found in 200 seeds")


def _still_fails(mutation):
    def predicate(candidate):
        return bool(check_case(candidate, mutation)[1])

    return predicate


class TestShrink:
    def test_shrunk_case_still_fails_and_is_smaller(self):
        case, mutation = _failing_case_for("drop-deviation")
        shrunk = shrink_case(case, _still_fails(mutation))
        assert check_case(shrunk, mutation)[1]
        assert shrunk.n <= case.n
        assert len(shrunk.edges) <= len(case.edges)
        assert shrunk.k <= case.k

    def test_shrink_drops_category_indirection(self):
        case, mutation = _failing_case_for("cutoff-off-by-one")
        shrunk = shrink_case(case, _still_fails(mutation))
        assert shrunk.category is None
        assert not shrunk.categories

    def test_non_failing_case_unchanged_shape(self):
        # The predicate never fires, so nothing may be "kept".
        case = generate_case(0)
        shrunk = shrink_case(case, lambda c: False)
        assert shrunk == case

    def test_budget_respected(self):
        calls = []

        def predicate(candidate):
            calls.append(1)
            return True  # everything "fails" — worst case for the budget

        case = generate_case(1)
        shrink_case(case, predicate, max_checks=25)
        assert len(calls) <= 25

    def test_shrink_compacts_node_ids(self):
        # A failing case whose interesting part touches few nodes
        # shrinks to a dense relabeling with no ghost ids.
        case, mutation = _failing_case_for("length-drift")
        shrunk = shrink_case(case, _still_fails(mutation))
        used = (
            {u for u, _, _ in shrunk.edges}
            | {v for _, v, _ in shrunk.edges}
            | set(shrunk.sources)
            | set(shrunk.destinations)
        )
        assert used == set(range(shrunk.n))

    def test_simplified_helper_replaces_fields(self):
        case = generate_case(0)
        other = simplified(case, k=1)
        assert isinstance(other, FuzzCase)
        assert other.k == 1
        assert other.category is None
