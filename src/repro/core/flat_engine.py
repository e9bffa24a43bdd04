"""The flat iterative-bounding engine: the state behind Algs. 4–8.

Every registry algorithm searches through the kernels of
:mod:`repro.pathing` — rows read straight from the
:class:`~repro.graph.digraph.DiGraph` (``G_Q`` overlays included),
per-search state in the pooled, generation-stamped buffers of
:mod:`repro.pathing.flat`.  This module holds what the iteratively
bounding algorithms keep *across* searches of one query:

* :func:`make_test_lb` — the ``TestLB`` closure every test of a query
  runs: the search graph and a heuristic already resolved into a
  dense vector (``h[v]`` by index, no closure call; see
  :func:`dense_heuristic`); each test hands the subspace prefix to the
  kernel, which pre-stamps it in ``O(|prefix|)``;
* :class:`FlatIncrementalSPT` — Alg. 7 on pooled dist/parent/stamp
  arrays; its distance vector *is* the reverse search's heuristic
  array (settled = exact ``ds``, unsettled = ``inf`` = "outside the
  tree, prune"), so growing the tree updates the heuristic in place;
* the Alg. 8 one-hop bounds over those pieces
  (:func:`make_comp_lb`, :func:`make_comp_lb_children`), used by
  :func:`repro.core.spt_incremental.iter_bound_spti`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

import numpy as np

from repro import native
from repro.core.stats import SearchStats
from repro.core.subspace import Subspace
from repro.graph.virtual import QueryGraph
from repro.pathing.astar import bounded_astar_path
from repro.pathing.flat import (
    acquire_inf_array,
    acquire_native_scratch,
    acquire_scratch,
    release_inf_array,
    release_native_scratch,
    release_scratch,
)

__all__ = [
    "make_test_lb",
    "FlatIncrementalSPT",
    "make_comp_lb",
    "make_comp_lb_children",
    "dense_heuristic",
]

INF = float("inf")

_EMPTY: frozenset[int] = frozenset()


def dense_heuristic(
    heuristic, size: int
) -> memoryview | list[float] | Callable[[int], float] | None:
    """Resolve a heuristic into the cheapest search-kernel form.

    * ``None`` → ``None`` (the kernel's zero heuristic, ``estimate = g``
      exactly);
    * anything exposing ``dense(size)`` — a
      :class:`~repro.landmarks.index.TargetBounds`, the ``SPT_P``
      overlay heuristic, or :data:`~repro.landmarks.index.ZERO_BOUNDS`
      (whose dense form is ``None``) — → that dense vector, padded
      with 0.0 for virtual ids: indexed, never called;
    * anything else → returned unchanged and called per node.

    The resolved form is value-identical to calling the original:
    ``dense[v] == heuristic(v)`` bit-for-bit.
    """
    densify = getattr(heuristic, "dense", None)
    if densify is not None:
        return densify(size)
    return heuristic


def make_test_lb(
    graph,
    h: memoryview | list[float] | Callable[[int], float] | None,
    goal: int,
    stats: SearchStats | None,
):
    """The ``TestLB`` closure for
    :func:`~repro.core.iter_bound.iter_bound_search`.

    Runs :func:`~repro.pathing.astar.bounded_astar_path` toward
    ``goal`` on ``graph`` — a frozen
    :class:`~repro.graph.digraph.DiGraph`, a ``G_Q`` overlay, or a
    :class:`~repro.graph.digraph.ReversedView` of either — with ``h``,
    a heuristic already in its kernel form (:func:`dense_heuristic`'s
    output, or the incremental tree's ``ds`` vector).  The iteratively
    bounding driver calls it thousands of times per query; each call
    hands the subspace prefix straight to the kernel, which pre-stamps
    it into its pooled scratch — no per-test set build and no per-edge
    membership check.  ``banned`` passes through as the subspace's
    frozenset (it is only consulted on the source row, where a C-level
    set lookup beats stamping).
    """

    def test_lb(subspace: Subspace, tau: float, info: dict):
        prefix = subspace.prefix
        # The whole prefix (head included) goes in as blocked: the
        # kernel re-opens its source after stamping, so this equals
        # blocking prefix[:-1] while saving a tuple slice per test.
        return bounded_astar_path(
            graph,
            prefix[-1],
            goal,
            h,
            tau,
            blocked=prefix if len(prefix) > 1 else _EMPTY,
            banned_first_hops=subspace.banned,
            initial_distance=subspace.prefix_weight,
            stats=stats,
            info=info,
            collect_dists=True,
        )

    return test_lb


class FlatIncrementalSPT:
    """Alg. 7 on flat arrays: the incremental shortest-path tree.

    Grows *forward* from the query source over ``G_Q``, settling nodes
    in order of Alg. 7's key ``ds(v) + lb(v, V_T)``; a node's distance
    from the source is exact once it is settled.  State lives in a
    pooled scratch buffer (dist/parent/stamp) of the base graph, and
    the paper's ``ds(·)`` is exposed as the dense vector :attr:`h`:
    settled nodes hold their exact distance, everything else ``inf``.
    That vector *is* the reverse search's heuristic array, so Alg. 7
    enlargement updates the heuristic in place and ``TestLB-SPT_I``'s
    "prune all nodes outside the tree" rule costs one list index per
    relaxation.

    Real nodes relax the base graph's plain rows; the zero-weight edge
    ``u -> t`` of a destination ``u`` is relaxed explicitly after
    them — where ``G_Q``'s overlay row has it — so tie order matches a
    search over the overlay rows.  Only virtual nodes read the overlay.

    The persistent queue (the paper's ``Q_T``) survives across
    :meth:`grow` calls; :attr:`queue_peak` is its largest size at the
    end of a settle call (at least 1).  :meth:`close` returns the
    pooled buffers.

    With the compiled tier (:data:`repro.native.HAVE_NATIVE`) each
    settle call is one C call (``kpj_spt_settle``) over the base
    graph's CSR export and the overlay's virtual rows, on a
    :class:`~repro.pathing.flat.NativeScratch`: a binary heap on
    ``(key, node)`` — the order ``heapq`` gives the tuples — so pops,
    parents, ties, :attr:`queue_peak` and every counter equal the
    Python loop's.  A :class:`~repro.landmarks.index.TargetBounds`
    key term is computed per node on first touch, into its memo;
    bounds without ``native_args`` (a plain callable) run the Python
    loop.  :attr:`h` is then a ``memoryview`` of the pooled
    ``float64`` vector, read exactly as the list is.
    """

    __slots__ = (
        "h",
        "queue_peak",
        "_graph",
        "_base_rows",
        "_rows",
        "_n",
        "_target",
        "_source",
        "_destinations",
        "_tb",
        "_scratch",
        "_gen",
        "_settled_tag",
        "_dist",
        "_stamp",
        "_parent",
        "_heap",
        "_settled_order",
        "_dest_nodes",
        "_dest_dists",
        "_dest_cache",
        "_stats",
        "_native",
    )

    def __init__(
        self,
        query_graph: QueryGraph,
        target_bounds,
        stats: SearchStats | None = None,
    ) -> None:
        graph = query_graph.graph
        source = query_graph.source
        self._graph = graph
        self._source = source
        self._stats = stats
        self.queue_peak = 1
        args = native.HAVE_NATIVE and getattr(target_bounds, "native_args", None)
        if args:
            self._begin_native(query_graph, args(query_graph.base.n))
            return
        self._native = None
        self._base_rows = query_graph.base.adjacency
        self._rows = graph.adjacency
        self._n = query_graph.base.n
        self._target = query_graph.target
        self._destinations = frozenset(query_graph.destinations)
        tb = dense_heuristic(target_bounds, graph.n)
        if callable(tb):
            tb = [tb(v) for v in range(graph.n)]
        #: Alg. 7's key term ``lb(v, V_T)`` by index; ``None`` = zero.
        self._tb = tb
        self._scratch = acquire_scratch(graph)
        self._gen = self._scratch.begin()
        self._settled_tag = -self._gen
        self._dist = self._scratch.dist
        self._stamp = self._scratch.stamp
        self._parent = self._scratch.parent
        #: exact ``ds(v)`` for settled nodes, ``inf`` elsewhere — the
        #: reverse search's dense heuristic.
        self.h = acquire_inf_array(graph)
        self._settled_order: list[int] = []
        self._dest_nodes: list[int] = []
        self._dest_dists: list[float] = []
        self._dest_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._dist[source] = 0.0
        self._stamp[source] = self._gen
        key = 0.0 if tb is None else 0.0 + tb[source]
        self._heap: list[tuple[float, int]] = [(key, source)]
        if stats is not None:
            stats.heap_pushes += 1

    def _begin_native(self, query_graph: QueryGraph, tb: tuple) -> None:
        """Set up the compiled tier's tree: the key term ``tb`` (the
        bounds' ``native_args``), pooled state, the overlay's flags and
        virtual rows, and the source's push."""
        self._tb = tb
        scratch = acquire_native_scratch(self._graph)
        state = scratch.state
        state.dest, state.vptr, state.vidx, state.vw = _overlay_arrays(query_graph)
        state.target = query_graph.target
        state.tb, state.lm, state.dmin, state.nlm = tb
        self._native = scratch
        self._stamp = scratch.stamp
        self._parent = scratch.parent
        self.h = scratch.h
        if native.lib.kpj_spt_begin(state, self._source):
            raise RuntimeError("incremental SPT heap has no room for the source")
        self._settled_tag = -state.gen
        if self._stats is not None:
            self._stats.heap_pushes += 1

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _settle_until(self, target: int, tau: float) -> int | None:
        """The shared settle loop: pop/settle until a stop condition.

        With a ``target`` (phase one) it settles until that node is
        settled and returns it; with ``tau`` (phase two, Alg. 7) it
        settles every node whose queue key is ≤ ``tau`` and returns
        ``None``.  One inlined loop — rather than a per-node
        ``_settle_next`` call — because this is the engine's single
        hottest path: every local is bound exactly once per *phase*,
        not once per settled node.
        """
        if self._native is not None:
            return self._settle_native(target, tau)
        heap = self._heap
        stamp = self._stamp
        dist = self._dist
        parent = self._parent
        gen = self._gen
        settled_tag = self._settled_tag
        base_rows = self._base_rows
        rows = self._rows
        n = self._n
        t = self._target
        tb = self._tb
        stats = self._stats
        h = self.h
        settled_order = self._settled_order
        destinations = self._destinations
        dest_nodes = self._dest_nodes
        dest_dists = self._dest_dists
        before = len(settled_order)
        relaxed = 0
        pops = 0
        found: int | None = None
        while heap:
            key, u = heap[0]
            if key > tau:
                break
            heappop(heap)
            pops += 1
            if stamp[u] == settled_tag:
                continue
            du = dist[u]
            stamp[u] = settled_tag
            h[u] = du
            settled_order.append(u)
            row = base_rows[u] if u < n else rows[u]
            if tb is not None:
                for v, w in row:
                    st = stamp[v]
                    if st == settled_tag:
                        continue
                    nd = du + w
                    if st != gen or nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        stamp[v] = gen
                        heappush(heap, (nd + tb[v], v))
                        relaxed += 1
            else:
                for v, w in row:
                    st = stamp[v]
                    if st == settled_tag:
                        continue
                    nd = du + w
                    if st != gen or nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        stamp[v] = gen
                        heappush(heap, (nd, v))
                        relaxed += 1
            if u in destinations:
                dest_nodes.append(u)
                dest_dists.append(du)
                self._dest_cache = None
                # G_Q's zero-weight edge u -> t, last in u's overlay row;
                # lb(t, V_T) is 0, so its key is du itself.
                st = stamp[t]
                if st != settled_tag and (st != gen or du < dist[t]):
                    dist[t] = du
                    parent[t] = u
                    stamp[t] = gen
                    heappush(heap, (du, t))
                    relaxed += 1
            if u == target:
                found = u
                break
        if stats is not None:
            stats.nodes_settled += len(settled_order) - before
            stats.edges_relaxed += relaxed
            # Pushes pair 1:1 with counted relaxations in this loop
            # (the initial source push is counted in ``__init__``).
            stats.heap_pushes += relaxed
            stats.heap_pops += pops
        if len(heap) > self.queue_peak:
            # The queue peak at phase boundaries — one check per settle
            # call, not per settled node.
            self.queue_peak = len(heap)
        return found

    def _settle_native(self, target: int, tau: float) -> int | None:
        """:meth:`_settle_until` as one C call; the call's counters and
        the queue peak are read back only when it settled anything."""
        state = self._native.state
        found = native.lib.kpj_spt_settle(state, target, tau)
        if found == _IDLE:
            return None
        if found == _FULL:
            raise RuntimeError("incremental SPT heap overflow")
        stats = self._stats
        if stats is not None:
            relaxed = state.relaxed
            stats.nodes_settled += state.settled
            stats.edges_relaxed += relaxed
            stats.heap_pushes += relaxed
            stats.heap_pops += state.pops
        self.queue_peak = state.peak
        return found if found >= 0 else None

    def build_initial(self, target: int) -> tuple[tuple[int, ...], float] | None:
        """Phase one: settle until ``target`` is reached.

        Returns the first shortest path (source → … → target) and its
        length, or ``None`` if the target is unreachable.  This is the
        by-product construction invoked at line 1 of Alg. 4.
        """
        u = self._settle_until(target, INF)
        if u is None:
            return None
        path = [u]
        node = u
        parent = self._parent
        while node != self._source:
            node = parent[node]
            path.append(node)
        path.reverse()
        return tuple(path), self.h[target]

    def grow(self, tau: float) -> None:
        """Phase two (Alg. 7): settle every node with key ≤ ``tau``."""
        if self._native is not None:
            self._settle_native(-1, tau)
            return
        heap = self._heap
        if heap and heap[0][0] <= tau:
            self._settle_until(-1, tau)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def __contains__(self, v: int) -> bool:
        return self._stamp[v] == self._settled_tag

    def __len__(self) -> int:
        if self._native is not None:
            return self._native.state.count
        return len(self._settled_order)

    def distance(self, v: int) -> float | None:
        """Exact ``ds(v)`` if settled, else ``None``."""
        d = self.h[v]
        return None if d == INF else d

    def heuristic(self, v: int) -> float:
        """The reverse search's bound: exact ``ds`` if settled, else
        ``inf`` ("outside the tree, prune")."""
        return self.h[v]

    @property
    def num_settled_destinations(self) -> int:
        """``|D|`` — destinations already in the tree."""
        if self._native is not None:
            return self._native.state.dest_count
        return len(self._dest_nodes)

    def dest_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The settled destinations as ``(nodes, distances)`` arrays.

        Rebuilt lazily only when new destinations settled since the
        last call — Alg. 8's vectorised reduction runs over these.  On
        the compiled tier they are views of the pooled arrays, valid
        until the tree grows or closes.
        """
        scratch = self._native
        if scratch is not None:
            count = scratch.state.dest_count
            return scratch.dest_nodes[:count], scratch.dest_dists[:count]
        cache = self._dest_cache
        if cache is None:
            cache = (
                np.asarray(self._dest_nodes, dtype=np.int64),
                np.asarray(self._dest_dists, dtype=np.float64),
            )
            self._dest_cache = cache
        return cache

    def close(self) -> None:
        """Return the pooled buffers; the tree must not be used after."""
        if self.h is None:
            return
        if self._native is not None:
            release_native_scratch(self._native)
            self._native = None
            self._tb = None
        else:
            release_scratch(self._scratch)
            self._scratch = None
            release_inf_array(self._graph, self.h, self._settled_order)
        self.h = None


_FULL, _IDLE = -2, -3  # kpj_spt_settle's status codes (see kernels.c)


def _overlay_arrays(query_graph: QueryGraph) -> tuple:
    """``G_Q``'s forward overlay as the compiled settle loop reads it:
    destination flags by node id (``n + 2`` bytes) and the virtual
    nodes' rows as a small CSR (``vptr``, ``vidx``, ``vw``), as cdata
    pointers.  Cached on the overlay, so a prepared entry builds them
    once for every query against its destination set."""
    rows = query_graph.graph.adjacency
    cached = rows.kernel_arrays
    if cached is None:
        n = query_graph.base.n
        flags = np.zeros(n + 2, dtype=np.uint8)
        flags[list(query_graph.destinations)] = 1
        virtual = [rows[u] for u in range(n, len(rows))]
        vptr = np.zeros(len(virtual) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in virtual], out=vptr[1:])
        vidx = np.array([v for row in virtual for v, _ in row], dtype=np.int64)
        vw = np.array([w for row in virtual for _, w in row], dtype=np.float64)
        cached = rows.kernel_arrays = (
            native.pointer("uint8_t[]", flags),
            native.pointer("int64_t[]", vptr),
            native.pointer("int64_t[]", vidx),
            native.pointer("double[]", vw),
        )
    return cached


def make_comp_lb(
    tree: FlatIncrementalSPT,
    in_adjacency,
    target: int,
    total_destinations: int,
    source_bounds: Callable[[int], float],
) -> Callable[[Subspace], float]:
    """Alg. 8 (``CompLB-SPT_I``) over the flat structures.

    At the virtual target (the reverse root) the bound is a vectorised
    min over the settled-destination arrays; at interior nodes it is a
    loop over the reverse adjacency rows reading the tree's dense
    ``ds`` vector, with the landmark bound as fallback.  Values match
    the scalar definition exactly (a min is order-independent and the
    sums use the same operands).
    """
    h = tree.h

    def comp_lb(subspace: Subspace) -> float:
        prefix = subspace.prefix
        u = prefix[-1]
        banned = subspace.banned
        base = subspace.prefix_weight
        if u == target:
            nodes, dists = tree.dest_arrays()
            best = INF
            if nodes.size:
                if banned or len(prefix) > 1:
                    excluded = list(banned)
                    excluded.extend(prefix)
                    candidates = dists[~np.isin(nodes, excluded)]
                else:
                    candidates = dists
                if candidates.size:
                    best = base + float(candidates.min())
            if best == INF and tree.num_settled_destinations < total_destinations:
                # Unsettled destinations may still open this subspace
                # later; 0 keeps it alive (Alg. 8 line 8).
                return 0.0
            return best
        best = INF
        for v, w in in_adjacency[u]:
            if v in banned or v in prefix:
                continue
            ds = h[v]
            if ds == INF:
                ds = source_bounds(v)
            estimate = base + w + ds
            if estimate < best:
                best = estimate
        return best

    return comp_lb


def make_comp_lb_children(
    tree: FlatIncrementalSPT,
    in_adjacency,
    comp_lb: Callable[[Subspace], float],
    source_bounds: Callable[[int], float],
):
    """Alg. 8 batched over one ``divide``: bounds for *all* children at once.

    When the driver outputs a path it divides the subspace into one
    child per path position and computes ``CompLB`` for each; the
    scalar bound tests each neighbour against the child's prefix tuple
    — ``O(|prefix|)`` per edge, quadratic over a whole division.  This
    closure produces the identical ``(child, bound)`` sequence — same
    order, same float sums ``(base + w) + ds``, same exclusion
    outcomes — with one position dict per division: since the path is
    simple, "``v`` on ``path[: j + 1]`` or ``v`` the banned hop
    ``path[j + 1]``" is exactly ``pos(v) <= j + 1``, an ``O(1)``
    lookup.  The child-at-head subspace (whose head may be the virtual
    target, and whose banned set may hold off-path nodes) still goes
    through the scalar ``comp_lb``.
    """
    h = tree.h

    def comp_lb_children(
        subspace: Subspace, path: tuple[int, ...], dists
    ) -> list[tuple[Subspace, float]]:
        d = len(subspace.prefix) - 1
        L = len(path)
        pairs: list[tuple[Subspace, float]] = []
        first = subspace.child_at_head(path[d + 1])
        pairs.append((first, comp_lb(first)))
        if L - d - 2 <= 0:
            return pairs
        pos = {node: i for i, node in enumerate(path)}
        append = pairs.append
        for j in range(d + 1, L - 1):
            base = dists[j - d]
            best = INF
            cutoff = j + 1
            for v, w in in_adjacency[path[j]]:
                if v in pos and pos[v] <= cutoff:
                    continue
                ds = h[v]
                if ds == INF:
                    ds = source_bounds(v)
                estimate = base + w + ds
                if estimate < best:
                    best = estimate
            append(
                (
                    Subspace(path[: j + 1], frozenset((path[cutoff],)), base),
                    best,
                )
            )
        return pairs

    return comp_lb_children
