"""Property-based checks: the search substrate and caching never
change answers.

* **brute force** — every registry algorithm returns exactly the top-k
  length multiset that exhaustive enumeration finds;
* **cached vs uncached** — a solver whose prepared-category cache is
  warm (or disabled) returns exactly what a cold solver returns;
* **validity** — returned paths are real, simple, correctly priced and
  sorted.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import brute_force_topk
from repro.core.kpj import ALGORITHMS, KPJSolver
from repro.graph.categories import CategoryIndex
from repro.graph.digraph import DiGraph


@st.composite
def graph_and_query(draw):
    """A small weighted digraph plus a KPJ query over it."""
    n = draw(st.integers(4, 9))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=n, max_size=3 * n, unique=True)
    )
    weights = draw(
        st.lists(st.integers(0, 9), min_size=len(edges), max_size=len(edges))
    )
    g = DiGraph(n)
    for (u, v), w in zip(edges, weights):
        g.add_edge(u, v, float(w))
    g.freeze()
    source = draw(st.integers(0, n - 1))
    dest_count = draw(st.integers(1, 3))
    destinations = draw(
        st.lists(
            st.integers(0, n - 1),
            min_size=dest_count,
            max_size=dest_count,
            unique=True,
        )
    )
    k = draw(st.integers(1, 5))
    return g, source, tuple(destinations), k


def _length_multiset(result):
    return sorted(round(x, 9) for x in result.lengths)


@settings(max_examples=25, deadline=None)
@given(case=graph_and_query())
def test_every_algorithm_matches_brute_force(case):
    g, source, destinations, k = case
    expected = sorted(
        round(p.length, 9) for p in brute_force_topk(g, source, destinations, k)
    )
    solver = KPJSolver(g, CategoryIndex({"T": destinations}), landmarks=min(3, g.n))
    for algorithm in sorted(ALGORITHMS):
        result = solver.top_k(source, category="T", k=k, algorithm=algorithm)
        assert _length_multiset(result) == expected, algorithm


@settings(max_examples=25, deadline=None)
@given(case=graph_and_query())
def test_cached_matches_uncached_on_every_algorithm(case):
    g, source, destinations, k = case
    cats = CategoryIndex({"T": destinations})
    cached = KPJSolver(g, cats, landmarks=2, prepared_cache_size=8)
    uncached = KPJSolver(g, cats, landmarks=2, prepared_cache_size=0)
    for algorithm in sorted(ALGORITHMS):
        first = cached.top_k(source, category="T", k=k, algorithm=algorithm)
        warm = cached.top_k(source, category="T", k=k, algorithm=algorithm)
        cold = uncached.top_k(source, category="T", k=k, algorithm=algorithm)
        assert _length_multiset(first) == _length_multiset(cold), algorithm
        assert _length_multiset(warm) == _length_multiset(cold), algorithm
    # With a positive cache bound the repeat queries must have hit.
    assert cached.cache_info()["hits"] > 0
    assert uncached.cache_info()["hits"] == 0


@settings(max_examples=15, deadline=None)
@given(case=graph_and_query())
def test_paths_are_valid(case):
    """Contract check: returned paths are real."""
    g, source, destinations, k = case
    solver = KPJSolver(g, CategoryIndex({"T": destinations}), landmarks=None)
    result = solver.top_k(source, category="T", k=k)
    dest_set = set(destinations)
    previous = -math.inf
    for path in result.paths:
        assert path.nodes[0] == source
        assert path.nodes[-1] in dest_set
        assert g.is_simple_path(path.nodes)
        assert math.isclose(
            g.path_weight(path.nodes), path.length, rel_tol=1e-9, abs_tol=1e-9
        )
        assert path.length >= previous - 1e-12
        previous = path.length


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(case=graph_and_query())
def test_every_algorithm_matches_brute_force_exhaustive(case):
    """The slow sweep of the brute-force check (``pytest -m slow``)."""
    test_every_algorithm_matches_brute_force.hypothesis.inner_test(case)
