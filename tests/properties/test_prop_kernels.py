"""Property-based parity: kernels and caching never change answers.

Two invariants ride on the performance stack:

* **flat vs dict** — every registry algorithm returns the same top-k
  path-length multiset whichever substrate it runs on;
* **cached vs uncached** — a solver whose prepared-category cache is
  warm (or disabled) returns exactly what a cold solver returns.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kpj import ALGORITHMS, KPJSolver
from repro.graph.categories import CategoryIndex
from repro.graph.digraph import DiGraph
from repro.pathing.kernels import KERNELS


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
def test_flat_matches_dict_on_every_algorithm(case):
    g, source, destinations, k = case
    cats = CategoryIndex({"T": destinations})
    solver_dict = KPJSolver(g, cats, landmarks=min(3, g.n), kernel="dict")
    solver_flat = KPJSolver(g, cats, landmarks=min(3, g.n), kernel="flat")
    for algorithm in sorted(ALGORITHMS):
        a = solver_dict.top_k(source, category="T", k=k, algorithm=algorithm)
        b = solver_flat.top_k(source, category="T", k=k, algorithm=algorithm)
        assert _length_multiset(a) == _length_multiset(b), algorithm


@settings(max_examples=25, deadline=None)
@given(case=graph_and_query())
def test_flat_returns_identical_paths_per_algorithm(case):
    """The strong form of the parity invariant: for every registry
    algorithm the flat substrate returns the *exact same paths* — node
    sequences and bit-for-bit lengths — as the dict substrate, not just
    the same length multiset.

    The one exception is ``da-spt``: its deviation order follows the
    SPT parent structure, and the scipy-built SPT breaks equal-distance
    ties differently from the dict build, so only the length multiset
    is specified.
    """
    g, source, destinations, k = case
    cats = CategoryIndex({"T": destinations})
    solver_dict = KPJSolver(g, cats, landmarks=min(3, g.n), kernel="dict")
    solver_flat = KPJSolver(g, cats, landmarks=min(3, g.n), kernel="flat")
    for algorithm in sorted(ALGORITHMS):
        a = solver_dict.top_k(source, category="T", k=k, algorithm=algorithm)
        b = solver_flat.top_k(source, category="T", k=k, algorithm=algorithm)
        if algorithm == "da-spt":
            assert _length_multiset(a) == _length_multiset(b), algorithm
            continue
        assert [(p.length, p.nodes) for p in a.paths] == [
            (p.length, p.nodes) for p in b.paths
        ], algorithm


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
@given(
    case=graph_and_query(),
    kernel=st.sampled_from(KERNELS),
)
def test_paths_are_valid_under_both_kernels(case, kernel):
    """Contract check: whatever the kernel, returned paths are real."""
    g, source, destinations, k = case
    solver = KPJSolver(
        g, CategoryIndex({"T": destinations}), landmarks=None, kernel=kernel
    )
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
def test_flat_matches_dict_exhaustive(case):
    """The slow sweep of the flat/dict invariant (``pytest -m slow``)."""
    test_flat_matches_dict_on_every_algorithm.hypothesis.inner_test(case)
