"""Unit tests for the flat iterative-bounding engine.

The flat engine (:mod:`repro.core.flat_engine`) holds the ``SPT_I``
driver's moving parts — ``TestLB`` closure, incremental tree, Alg. 8
bounds, batched division — over pooled flat arrays.  The corpus pins
and the property suite assert whole-query answers; these tests pin
the *semantics* they rest on:

* the ``τ``-cap retirement of provably-empty (dead-end) prefixes;
* blocked-prefix handling deep in the search tree, including the
  kernel's "pre-stamp the whole prefix, then re-open the source"
  trick being exactly "block ``prefix[:-1]``";
* the ``tail_dists`` the kernel reports being the same float
  accumulation ``divide`` would recompute from edge weights;
* the batched Alg. 8 division producing exactly what ``divide`` +
  scalar ``comp_lb`` produce.
"""

import random

import pytest

from repro.baselines.brute_force import brute_force_topk
from repro.core.flat_engine import dense_heuristic, make_test_lb
from repro.core.iter_bound import iter_bound_search
from repro.core.spt_incremental import iter_bound_spti
from repro.core.stats import SearchStats
from repro.core.subspace import Subspace
from repro.graph.digraph import DiGraph
from repro.graph.virtual import build_query_graph
from repro.landmarks.index import ZERO_BOUNDS, LandmarkIndex
from repro.pathing.astar import bounded_astar_path
from tests.conftest import KERNELS, random_graph

INF = float("inf")


def _run_spti(graph, source, destinations, k, stats=None):
    """IterBound-SPT_I, stripped to base ids."""
    qg = build_query_graph(graph, (source,), destinations)
    index = LandmarkIndex.build(graph, 2, seed=7)
    dest = tuple(sorted(set(destinations)))
    paths = iter_bound_spti(
        qg,
        k,
        index.to_target_bounds(dest),
        index.from_source_bounds((source,)),
        stats=stats,
    )
    return [(qg.strip(p.nodes), p.length) for p in paths]


def _run_iter_bound(graph, source, destinations, k, stats=None):
    """Plain IterBound with the zero bound, stripped to base ids."""
    qg = build_query_graph(graph, (source,), destinations)
    paths = iter_bound_search(
        qg.graph,
        qg.source,
        qg.target,
        k,
        ZERO_BOUNDS,
        stats=stats,
    )
    return [(qg.strip(p.nodes), p.length) for p in paths]


class TestTauCapRetirement:
    """A dead-end prefix must be retired at the τ-cap, not retried
    forever."""

    @pytest.mark.parametrize("engine", KERNELS)
    def test_cul_de_sac_terminates(self, engine):
        # After outputting 0->1->2->3, dividing bans (1, 2) under
        # prefix (0, 1): that subspace is empty and only the τ-limit
        # proves it.
        g = DiGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        g.freeze()
        stats = SearchStats()
        results = _run_spti(g, 0, (3,), 5, stats=stats)
        assert [length for _, length in results] == [3.0]
        assert stats.subspaces_pruned >= 1

    @pytest.mark.parametrize("engine", KERNELS)
    def test_retirement_counted_once_per_empty_subspace(self, engine):
        # Two dead-end arms: every empty subspace is pruned exactly
        # once (the values the dict and flat engines both produced).
        g = DiGraph.from_edges(
            6,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 5, 1.0),
                (0, 3, 2.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
            ],
        )
        g.freeze()
        stats = SearchStats()
        results = _run_spti(g, 0, (5,), 6, stats=stats)
        assert results == [((0, 1, 2, 5), 3.0), ((0, 3, 4, 5), 4.0)]
        assert stats.subspaces_pruned == 6
        assert (stats.lb_tests, stats.lb_test_retires) == (1, 0)

    @pytest.mark.parametrize("engine", KERNELS)
    def test_k_beyond_path_count_exhausts(self, engine):
        g = DiGraph.from_edges(
            8, [(i, i + 1, 1.0) for i in range(7)], bidirectional=True
        )
        g.freeze()
        results = _run_spti(g, 0, (7,), 4)
        # The line graph holds exactly one simple 0..7 path.
        assert [length for _, length in results] == [7.0]


class TestDeepPrefixBlocking:
    """Blocked sets built from deep prefixes must exclude exactly
    ``prefix[:-1]`` — revisits through any earlier prefix node are
    forbidden, the head itself is re-expandable as the search source."""

    def _lollipop(self):
        # 0-1-2-3 stick onto a 3-4-5-6-3 cycle; deviations deep in the
        # stick must never walk back through the blocked stick nodes.
        g = DiGraph.from_edges(
            7,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 6, 1.0),
                (6, 3, 1.0),
                (4, 6, 2.5),
            ],
            bidirectional=True,
        )
        g.freeze()
        return g

    @pytest.mark.parametrize("engine", KERNELS)
    def test_lollipop_topk_simple(self, engine):
        g = self._lollipop()
        expected = [p.length for p in brute_force_topk(g, 0, [6], 8)]
        got = [length for _, length in _run_spti(g, 0, (6,), 8)]
        assert got == pytest.approx(expected)
        # Every returned path must be simple (the whole point of
        # blocking the prefix).
        for nodes, _ in _run_spti(g, 0, (6,), 8):
            assert len(nodes) == len(set(nodes))

    @pytest.mark.parametrize("engine", KERNELS)
    def test_random_graphs_match_brute_force(self, engine):
        rng = random.Random(331)
        for _ in range(12):
            g = random_graph(rng, bidirectional=True)
            g.freeze()
            src = rng.randrange(g.n)
            dests = rng.sample(range(g.n), rng.randint(1, 3))
            k = rng.randint(2, 7)
            expected = [p.length for p in brute_force_topk(g, src, dests, k)]
            got = [length for _, length in _run_spti(g, src, dests, k)]
            assert got == pytest.approx(expected)

    def test_kernel_reopens_blocked_source(self):
        # The kernel is handed the *whole* prefix as blocked
        # (head included) and must still search from the head: blocking
        # (0, 1, 2) with source 2 equals blocking (0, 1).
        g = DiGraph.from_edges(
            5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 5.0)]
        )
        g.freeze()
        hit = bounded_astar_path(
            g, 2, 4, None, bound=100.0, blocked=(0, 1, 2), initial_distance=2.0
        )
        assert hit is not None
        tail, length = hit
        assert tail == (2, 3, 4)
        assert length == 4.0

    def test_kernel_blocked_excludes_interior_nodes(self):
        # Same graph, but block node 3: only the expensive 2->4 edge
        # remains.
        g = DiGraph.from_edges(
            5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 5.0)]
        )
        g.freeze()
        hit = bounded_astar_path(
            g, 2, 4, None, bound=100.0, blocked=(0, 1, 2, 3), initial_distance=2.0
        )
        assert hit == ((2, 4), 7.0)

    def test_kernel_banned_first_hops_only_bind_at_source(self):
        # Banning first hop 3 from source 2 still allows reaching 3
        # later through another node.
        g = DiGraph.from_edges(
            5, [(2, 3, 1.0), (3, 4, 1.0), (2, 0, 1.0), (0, 3, 1.0)]
        )
        g.freeze()
        hit = bounded_astar_path(
            g, 2, 4, None, bound=100.0, banned_first_hops=frozenset((3,))
        )
        assert hit == ((2, 0, 3, 4), 3.0)


class TestTailDistances:
    def test_tail_dists_match_edge_weight_accumulation(self):
        rng = random.Random(77)
        for _ in range(10):
            g = random_graph(rng, bidirectional=True)
            g.freeze()
            src = rng.randrange(g.n)
            dst = rng.randrange(g.n)
            info: dict = {}
            hit = bounded_astar_path(
                g, src, dst, None, bound=INF, info=info, collect_dists=True
            )
            if hit is None:
                assert info["tail_dists"] is None
                continue
            path, length = hit
            dists = info["tail_dists"]
            assert len(dists) == len(path)
            acc = 0.0
            assert dists[0] == 0.0
            for i in range(1, len(path)):
                acc = acc + g.edge_weight(path[i - 1], path[i])
                assert dists[i] == acc  # bit-for-bit, not approx
            assert dists[-1] == length

    def test_initial_distance_offsets_every_entry(self):
        g = DiGraph.from_edges(3, [(0, 1, 1.5), (1, 2, 2.5)])
        g.freeze()
        info: dict = {}
        hit = bounded_astar_path(
            g,
            0,
            2,
            None,
            bound=INF,
            initial_distance=10.0,
            info=info,
            collect_dists=True,
        )
        assert hit == ((0, 1, 2), 14.0)
        assert info["tail_dists"] == [10.0, 11.5, 14.0]


class TestEngineEquivalence:
    """The plain driver and the SPT_I engine return exactly the
    brute-force top-k lengths."""

    @pytest.mark.parametrize("seed", [11, 23, 59])
    def test_plain_driver_matches_brute_force(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            g = random_graph(rng, bidirectional=True)
            g.freeze()
            src = rng.randrange(g.n)
            dests = rng.sample(range(g.n), rng.randint(1, 2))
            k = rng.randint(1, 6)
            expected = [p.length for p in brute_force_topk(g, src, dests, k)]
            got = [length for _, length in _run_iter_bound(g, src, dests, k)]
            assert got == pytest.approx(expected)

    @pytest.mark.parametrize("seed", [13, 37, 71])
    def test_spti_matches_brute_force(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            g = random_graph(rng, bidirectional=True)
            g.freeze()
            src = rng.randrange(g.n)
            dests = rng.sample(range(g.n), rng.randint(1, 3))
            k = rng.randint(1, 7)
            expected = [p.length for p in brute_force_topk(g, src, dests, k)]
            got = [length for _, length in _run_spti(g, src, dests, k)]
            assert got == pytest.approx(expected)

    def test_dense_heuristic_matches_callable(self):
        g = DiGraph.from_edges(
            6,
            [(i, (i + 1) % 6, float(i + 1)) for i in range(6)],
            bidirectional=True,
        )
        g.freeze()
        index = LandmarkIndex.build(g, 2, seed=3)
        tb = index.to_target_bounds((4,))
        dense = dense_heuristic(tb, g.n)
        assert [dense[v] for v in range(g.n)] == [tb(v) for v in range(g.n)]

    def test_query_context_blocked_prefix_equals_dict_blocked(self):
        # One subspace, tested through make_test_lb (whole prefix
        # blocked, head re-opened) vs the kernel given prefix[:-1].
        g = DiGraph.from_edges(
            7,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 6, 1.0),
                (6, 3, 1.0),
            ],
            bidirectional=True,
        )
        g.freeze()
        sub = Subspace(
            prefix=(0, 1, 2, 3), banned=frozenset((4,)), prefix_weight=3.0
        )
        test_lb = make_test_lb(g, None, 6, None)
        flat_info: dict = {}
        flat_hit = test_lb(sub, 100.0, flat_info)
        dict_info: dict = {}
        dict_hit = bounded_astar_path(
            g,
            sub.head,
            6,
            ZERO_BOUNDS,
            bound=100.0,
            blocked=sub.blocked,
            banned_first_hops=sub.banned,
            initial_distance=sub.prefix_weight,
            info=dict_info,
        )
        assert flat_hit is not None and dict_hit is not None
        assert flat_hit[0] == dict_hit[0]
        assert flat_hit[1] == dict_hit[1]
        assert flat_info["pruned"] == dict_info["pruned"]


class TestSubspaceDivision:
    def test_divide_with_tail_dists_matches_edge_weight_walk(self):
        from repro.core.subspace import divide

        g = DiGraph.from_edges(
            5,
            [(0, 1, 1.25), (1, 2, 2.5), (2, 3, 0.75), (3, 4, 1.0)],
        )
        g.freeze()
        root = Subspace.entire(0)
        path = (0, 1, 2, 3, 4)
        dists = [0.0, 1.25, 3.75, 4.5, 5.5]
        def key(children):
            return [(c.prefix, c.banned, c.prefix_weight) for c in children]

        with_dists = list(divide(root, path, 5.5, g.edge_weight, dists))
        without = list(divide(root, path, 5.5, g.edge_weight, None))
        assert key(with_dists) == key(without)
        assert [c.prefix_weight for c in with_dists[1:]] == dists[1:-1]
