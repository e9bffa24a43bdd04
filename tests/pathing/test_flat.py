"""Unit tests for the flat search substrate.

Whole-graph sweeps must return the same distances whether scipy runs
them or the Python loop does; the constrained kernel must return the
paths of an independent dict-state Dijkstra (Yen's reference); pooled
scratch buffers must never leak state between searches.
"""

import random

import pytest

from repro.baselines.yen import _constrained_dijkstra as reference_dijkstra
from repro.core.stats import SearchStats
from repro.graph.virtual import build_query_graph
from repro.pathing import flat
from repro.pathing.astar import bounded_astar_path
from repro.pathing.dijkstra import (
    constrained_shortest_path,
    multi_source_distances,
    single_source_distances,
)
from repro.pathing.spt import build_spt_to_target
from tests.conftest import random_graph

INF = float("inf")


def _graphs(seed: int, count: int):
    rng = random.Random(seed)
    return [random_graph(rng) for _ in range(count)]


def _with_and_without_scipy(monkeypatch, run):
    """``run()`` once on the scipy path (where installed) and once on
    the Python loop."""
    with_scipy = run()
    monkeypatch.setattr(flat, "HAVE_SCIPY", False)
    without = run()
    monkeypatch.undo()
    return with_scipy, without


class TestSingleSourceParity:
    def test_exact_equality_on_random_graphs(self, monkeypatch):
        for g in _graphs(11, 15):
            for src in range(g.n):
                a, b = _with_and_without_scipy(
                    monkeypatch, lambda: single_source_distances(g, src)
                )
                assert a == b

    def test_cutoff_parity_including_boundary(self, monkeypatch):
        for g in _graphs(12, 10):
            src = 0
            full = single_source_distances(g, src)
            finite = sorted(x for x in full if x < INF and x > 0)
            if not finite:
                continue
            # Cut exactly at a realised distance: inclusive semantics.
            cutoff = finite[len(finite) // 2]
            a, b = _with_and_without_scipy(
                monkeypatch,
                lambda: single_source_distances(g, src, cutoff=cutoff),
            )
            assert a == b
            assert cutoff in a

    def test_multi_source_parity(self, monkeypatch):
        for g in _graphs(13, 10):
            srcs = (0, g.n - 1)
            a, b = _with_and_without_scipy(
                monkeypatch, lambda: multi_source_distances(g, srcs)
            )
            assert a == b


class TestShortestPathParity:
    def test_lengths_agree_and_paths_valid(self):
        for g in _graphs(21, 15):
            dist = single_source_distances(g, 0)
            for target in range(g.n):
                got = constrained_shortest_path(g, 0, target)
                if dist[target] == INF:
                    assert got is None
                    continue
                path, length = got
                assert length == pytest.approx(dist[target])
                assert g.path_weight(path) == pytest.approx(length)
                assert path[0] == 0 and path[-1] == target


class TestSPTParity:
    def test_distances_agree_and_tree_is_consistent(self, monkeypatch):
        for g in _graphs(31, 10):
            target = g.n - 1
            spt, spt_py = _with_and_without_scipy(
                monkeypatch, lambda: build_spt_to_target(g, target)
            )
            assert spt.dist == spt_py.dist
            assert spt.next_hop == spt_py.next_hop
            for u in range(g.n):
                if spt.dist[u] == INF:
                    continue
                walk = spt.path_from(u)
                assert walk[0] == u and walk[-1] == target
                assert g.path_weight(walk) == pytest.approx(spt.dist[u])

    def test_virtual_target_sweep_runs_on_the_base_graph(self):
        # Toward G_Q's virtual target the sweep is a multi-source run
        # from V_T over the reversed base graph; no export of G_Q.
        for g in _graphs(32, 8):
            dests = (0, g.n - 1)
            qg = build_query_graph(g, (1,), dests)
            spt = build_spt_to_target(qg.graph, qg.target)
            assert qg.graph.csr_cache is None
            assert spt.dist[qg.target] == 0.0
            for v in range(g.n):
                expected = min(
                    single_source_distances(g, v)[d] for d in dests
                )
                assert spt.dist[v] == expected


class TestConstrainedParity:
    def test_exact_parity_with_constraints(self):
        rng = random.Random(41)
        for g in _graphs(41, 15):
            src, dst = 0, g.n - 1
            blocked = {rng.randrange(g.n)} - {src, dst}
            banned = {rng.randrange(g.n)}
            got = constrained_shortest_path(
                g, src, dst, blocked=blocked, banned_first_hops=banned,
                initial_distance=1.5,
            )
            expected = reference_dijkstra(
                g, src, dst, blocked=blocked, banned_first_hops=banned,
                initial_distance=1.5,
            )
            assert got == expected  # identical paths, not just lengths

    def test_bounded_astar_parity_with_prune_info(self):
        # The zero heuristic given as a callable, a dense vector, or
        # None must search identically.
        for g in _graphs(42, 15):
            src, dst = 0, g.n - 1
            full = single_source_distances(g, src)
            bound = full[dst] if full[dst] < INF else 5.0
            answers = []
            for h in (lambda u: 0.0, [0.0] * g.n, None):
                info = {}
                hit = bounded_astar_path(g, src, dst, h, bound=bound, info=info)
                answers.append((hit, info))
            assert answers[0] == answers[1] == answers[2]

    def test_stats_counters_increment_on_flat(self, diamond_graph):
        stats = SearchStats()
        constrained_shortest_path(diamond_graph, 0, 3, stats=stats)
        assert stats.nodes_settled >= 2
        assert stats.edges_relaxed >= 2
        assert stats.heap_pushes == stats.edges_relaxed + 1


class TestScratchReuse:
    def test_scratch_pool_recycles_buffers(self, diamond_graph):
        s1 = flat.acquire_scratch(diamond_graph)
        flat.release_scratch(s1)
        s2 = flat.acquire_scratch(diamond_graph)
        assert s2 is s1  # same buffer, no reallocation
        flat.release_scratch(s2)

    def test_generation_stamping_isolates_calls(self, diamond_graph):
        # Two back-to-back searches through the pool must not leak
        # state: distances from the first run are invisible to the
        # second because the generation stamp advanced.
        a = constrained_shortest_path(diamond_graph, 0, 3)
        b = constrained_shortest_path(diamond_graph, 3, 0)
        c = constrained_shortest_path(diamond_graph, 0, 3)
        assert a == c
        assert b is None  # 3 has no outgoing route back to 0

    def test_nested_searches_get_distinct_scratch(self, diamond_graph):
        s1 = flat.acquire_scratch(diamond_graph)
        s2 = flat.acquire_scratch(diamond_graph)
        assert s1 is not s2
        flat.release_scratch(s2)
        flat.release_scratch(s1)

    def test_overlay_searches_share_the_base_graph_pool(self, diamond_graph):
        # Pools hang off the base graph with n + 2 slots, so a search on
        # any G_Q overlay (virtual target n, virtual source n + 1) draws
        # from them and a prepared-cache miss allocates no scratch.
        qg = build_query_graph(diamond_graph, (0, 1), (3,))
        scratch = flat.acquire_scratch(qg.reversed_graph())
        assert scratch.n == diamond_graph.n + 2
        flat.release_scratch(scratch)
        assert flat.acquire_scratch(diamond_graph) is scratch
        flat.release_scratch(scratch)


class TestPurePythonFallback:
    """The scipy-free code paths must agree with a reference Dijkstra."""

    def test_multi_source_python_fallback(self, monkeypatch):
        monkeypatch.setattr(flat, "HAVE_SCIPY", False)
        for g in _graphs(51, 5):
            srcs = (0, g.n // 2)
            got = multi_source_distances(g, srcs)
            for v in range(g.n):
                lengths = [
                    found[1]
                    for s in srcs
                    if (found := reference_dijkstra(g, s, v)) is not None
                ]
                assert got[v] == min(lengths, default=INF)
