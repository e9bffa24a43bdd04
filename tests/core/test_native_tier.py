"""The compiled tier (:mod:`repro.native`) against the Python reference.

With the tier loaded, Alg. 7's settle loop and the per-node landmark
bounds run in C.  Forcing :data:`repro.native.HAVE_NATIVE` off runs the
pure-Python loops on the same inputs; both must return the same paths,
the same :data:`~repro.core.stats.WORK_PARITY_FIELDS` and the same
``comp_sp`` record attributes (SPT_I's tree size and queue peak), and
every bound must be the same float.  The tier-dependent tests skip
where the tier did not build (no cffi, no compiler).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import native
from repro.core import spt_incremental
from repro.core.kpj import ALGORITHMS, KPJSolver
from repro.core.stats import WORK_PARITY_FIELDS
from repro.datasets.registry import road_network
from repro.fuzz import seed_corpus_cases
from repro.fuzz.generators import sequence_hash
from repro.fuzz.oracles import build_solver, run_query
from repro.graph.digraph import DiGraph
from repro.landmarks.index import LandmarkIndex
from repro.obs.tracing import SpanTracer
from tests.conftest import random_graph

needs_tier = pytest.mark.skipif(
    not native.HAVE_NATIVE, reason="compiled tier not built"
)

_CASES = dict(seed_corpus_cases())


def _answer(result) -> tuple:
    events = result.trace["events"]
    comp_sp = [attrs for name, _, _, attrs in events if name == "comp_sp"]
    return (
        sequence_hash(result.paths),
        {f: getattr(result.stats, f) for f in WORK_PARITY_FIELDS},
        comp_sp,
    )


def _on_both_tiers(monkeypatch, solve) -> tuple:
    """``solve()`` with the tier on, then forced off."""
    on = solve()
    monkeypatch.setattr(native, "HAVE_NATIVE", False)
    try:
        off = solve()
    finally:
        monkeypatch.undo()
    return on, off


@needs_tier
@pytest.mark.parametrize("name", sorted(_CASES))
def test_corpus_case_is_the_same_on_both_tiers(name, monkeypatch):
    case = _CASES[name]
    for algorithm in sorted(ALGORITHMS):

        def solve():
            solver = build_solver(case, cached=True)
            solver.tracer = SpanTracer()
            return _answer(run_query(solver, case, algorithm))

        on, off = _on_both_tiers(monkeypatch, solve)
        assert on == off, (name, algorithm)


@pytest.fixture(scope="module")
def sj():
    return road_network("SJ")


@needs_tier
@pytest.mark.parametrize("algorithm", ["iter-bound-spti", "iter-bound-spti-nl"])
def test_sj_kpj_and_gkpj_are_the_same_on_both_tiers(sj, algorithm, monkeypatch):
    """Larger heaps and real ties: SJ queries, one source or three."""
    rng = random.Random(7)
    queries = [
        (rng.sample(range(sj.n), rng.choice((1, 3))), rng.choice(("T1", "T2", "T3")),
         rng.choice((2, 8, 16)))
        for _ in range(24)
    ]

    def solve():
        solver = KPJSolver(sj.graph, sj.categories, landmarks=8, tracer=SpanTracer())
        return [
            _answer(solver.join(sources=sources, category=category, k=k,
                                algorithm=algorithm))
            for sources, category, k in queries
        ]

    on, off = _on_both_tiers(monkeypatch, solve)
    assert on == off


@needs_tier
def test_abort_after_the_tree_is_built_leaves_the_pool_clean(sj, monkeypatch):
    """A search that raises once SPT_I's tree exists still returns the
    pooled state with ``h`` all ``inf``, and the solver's next answer
    equals a fresh solver's."""
    query = dict(source=11, category="T2", k=6)
    fresh = KPJSolver(sj.graph, sj.categories, landmarks=8).top_k(**query)
    solver = KPJSolver(sj.graph, sj.categories, landmarks=8)

    def abort(*args, **kwargs):
        raise RuntimeError("search aborted")

    monkeypatch.setattr(spt_incremental, "iter_bound_search", abort)
    with pytest.raises(RuntimeError, match="search aborted"):
        solver.top_k(**query)
    monkeypatch.undo()
    pool = sj.graph.search_pools["native"]
    assert pool
    for scratch in pool:
        assert all(value == math.inf for value in scratch.h)
    again = solver.top_k(**query)
    assert [(p.length, p.nodes) for p in again.paths] == [
        (p.length, p.nodes) for p in fresh.paths
    ]
    fields = [f for f in WORK_PARITY_FIELDS if not f.startswith("prepared_cache")]
    assert [getattr(again.stats, f) for f in fields] == [
        getattr(fresh.stats, f) for f in fields
    ]


def _indexes():
    rng = random.Random(41)
    g = random_graph(rng, min_nodes=30, max_nodes=40, bidirectional=True)
    yield g, LandmarkIndex.build(g, num_landmarks=4, seed=1)
    # Two components: some landmarks reach some nodes only.
    split = DiGraph.from_edges(
        6, [(0, 1, 2.0), (1, 2, 1.5), (3, 4, 5.0), (4, 5, 0.0)], bidirectional=True
    )
    yield split, LandmarkIndex.build(split, num_landmarks=3, seed=0)


@needs_tier
@pytest.mark.parametrize("which", [0, 1], ids=["connected", "two-components"])
def test_eq2_kernel_matches_the_numpy_pass(which):
    graph, index = list(_indexes())[which]
    for targets in ((0,), (1, graph.n - 1), tuple(range(0, graph.n, 3))):
        dense = index.to_target_bounds(targets)
        lazy = index.to_target_bounds(targets)
        memo, matrix, dmin, nlm = lazy.native_args(graph.n)
        got = [
            native.lib.kpj_eq2_target(matrix, dmin, nlm, graph.n, v)
            for v in range(graph.n)
        ]
        expected = list(dense.dense(graph.n + 2))[: graph.n]
        assert np.array_equal(np.array(got), np.array(expected)), targets


@needs_tier
@pytest.mark.parametrize("which", [0, 1], ids=["connected", "two-components"])
def test_eq1_kernel_matches_the_numpy_column(which, monkeypatch):
    graph, index = list(_indexes())[which]
    for sources in ((0,), (2, graph.n - 2)):
        compiled = index.lazy_source_bounds(sources)
        got = [compiled(u) for u in range(graph.n)]
        monkeypatch.setattr(native, "HAVE_NATIVE", False)
        reference = index.lazy_source_bounds(sources)
        expected = [reference(u) for u in range(graph.n)]
        monkeypatch.undo()
        eager = list(index.from_source_bounds(sources).dense(graph.n + 2))[: graph.n]
        assert got == expected == eager, sources


@needs_tier
def test_bounds_for_another_graph_size_are_refused():
    graph, index = next(_indexes())
    bounds = index.to_target_bounds((0,))
    with pytest.raises(ValueError, match="bounds cover"):
        bounds.native_args(graph.n + 1)


@needs_tier
def test_a_hot_category_reuses_its_memo(sj):
    """The settle loop fills the Eq. (2) memo per touched node; the
    next query on the category reads those entries, and the untouched
    rest stays NaN until a dense reader fills it all."""
    solver = KPJSolver(sj.graph, sj.categories, landmarks=8)
    solver.top_k(5, category="T1", k=4)
    bounds = solver.prepare(category="T1").target_bounds
    buffer = np.asarray(memoryview(bounds._buffer))
    touched = np.count_nonzero(~np.isnan(buffer))
    assert 0 < touched < sj.n
    solver.top_k(5, category="T1", k=4)
    assert np.count_nonzero(~np.isnan(buffer)) == touched
    bounds.dense(sj.n + 2)
    assert not np.isnan(buffer).any()
