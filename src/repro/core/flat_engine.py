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
  :class:`CompiledIncrementalSPT` is the same tree with its settle
  loop in C (:mod:`repro.native`);
* the Alg. 8 one-hop bounds over those pieces
  (:func:`make_comp_lb`, :func:`make_comp_lb_children`), used by
  :func:`repro.core.spt_incremental.iter_bound_spti`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro import native
from repro.core.stats import SearchStats
from repro.core.subspace import Subspace
from repro.graph.virtual import QueryGraph
from repro.pathing.astar import bounded_astar_path
from repro.pathing.flat import (
    acquire_inf_array,
    acquire_scratch,
    release_inf_array,
    release_scratch,
)

__all__ = [
    "make_test_lb",
    "FlatIncrementalSPT",
    "CompiledIncrementalSPT",
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


class _IncrementalSPT:
    """The tier-free half of Alg. 7's tree: the first path and lookups.

    The shared members of :class:`FlatIncrementalSPT` and
    :class:`CompiledIncrementalSPT`; each subclass supplies the settle
    loop (``_settle_until``) and the dense ``ds`` vector :attr:`h`.
    """

    __slots__ = ("h", "queue_peak", "_source", "_parent", "_stamp", "_settled_tag",
                 "_stats")

    def __init__(self, source: int, stats: SearchStats | None) -> None:
        self._source = source
        self._stats = stats
        self.queue_peak = 1
        if stats is not None:
            stats.heap_pushes += 1  # the source's

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

    def __contains__(self, v: int) -> bool:
        return self._stamp[v] == self._settled_tag

    def distance(self, v: int) -> float | None:
        """Exact ``ds(v)`` if settled, else ``None``."""
        d = self.h[v]
        return None if d == INF else d

    def heuristic(self, v: int) -> float:
        """The reverse search's bound: exact ``ds`` if settled, else
        ``inf`` ("outside the tree, prune")."""
        return self.h[v]


class FlatIncrementalSPT(_IncrementalSPT):
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
    pooled buffers.  This pure-Python loop is the reference the
    compiled tree (:class:`CompiledIncrementalSPT`) is tested against,
    and the tree for bounds it cannot read.
    """

    __slots__ = (
        "_graph",
        "_base_rows",
        "_rows",
        "_n",
        "_target",
        "_destinations",
        "_tb",
        "_scratch",
        "_gen",
        "_dist",
        "_heap",
        "_settled_order",
        "_dest_nodes",
        "_dest_dists",
    )

    def __init__(
        self,
        query_graph: QueryGraph,
        target_bounds,
        stats: SearchStats | None = None,
    ) -> None:
        graph = query_graph.graph
        source = query_graph.source
        super().__init__(source, stats)
        self._graph = graph
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
        self._dist[source] = 0.0
        self._stamp[source] = self._gen
        key = 0.0 if tb is None else 0.0 + tb[source]
        self._heap: list[tuple[float, int]] = [(key, source)]

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

    def grow(self, tau: float) -> None:
        """Phase two (Alg. 7): settle every node with key ≤ ``tau``."""
        heap = self._heap
        if heap and heap[0][0] <= tau:
            self._settle_until(-1, tau)

    def __len__(self) -> int:
        return len(self._settled_order)

    def settled_destinations(self) -> tuple[list[int], list[float]]:
        """The destinations settled so far and their distances, in
        settle order — ``D`` of Alg. 8, read at the virtual target."""
        return self._dest_nodes, self._dest_dists

    def close(self) -> None:
        """Return the pooled buffers; the tree must not be used after."""
        if self.h is None:
            return
        release_scratch(self._scratch)
        self._scratch = None
        release_inf_array(self._graph, self.h, self._settled_order)
        self.h = None


class CompiledIncrementalSPT(_IncrementalSPT):
    """Alg. 7 with its settle loop in C: :class:`FlatIncrementalSPT`'s
    interface on a pooled :class:`repro.native.SPTState`.

    Each settle call is one C call over the base graph's CSR export and
    the overlay's virtual rows, on a binary heap ordered on ``(key,
    node)`` as ``heapq`` orders the tuples, so pops, parents, ties,
    :attr:`queue_peak` and every counter equal the Python loop's.  The
    key term comes from a :class:`~repro.landmarks.index.TargetBounds`
    (its memo, filled per node on first touch) or
    :data:`~repro.landmarks.index.ZERO_BOUNDS`; other bounds run the
    Python tree.  :attr:`h` is a ``memoryview`` of the pooled
    ``float64`` vector, read exactly as the list is.
    """

    __slots__ = ("_state",)

    def __init__(
        self,
        query_graph: QueryGraph,
        target_bounds,
        stats: SearchStats | None = None,
    ) -> None:
        state = native.begin_spt(
            query_graph, target_bounds.memo, target_bounds.matrix, target_bounds.dmin
        )
        super().__init__(query_graph.source, stats)
        self._state = state
        self.h = state.h
        self._parent = state.parent
        self._stamp = state.stamp
        self._settled_tag = state.settled_tag

    def _settle_until(self, target: int, tau: float) -> int | None:
        done = self._state.settle(target, tau)
        if done is None:
            return None
        found, settled, relaxed, pops, self.queue_peak = done
        stats = self._stats
        if stats is not None:
            stats.nodes_settled += settled
            stats.edges_relaxed += relaxed
            stats.heap_pushes += relaxed
            stats.heap_pops += pops
        return found

    def grow(self, tau: float) -> None:
        """Phase two (Alg. 7): settle every node with key ≤ ``tau``."""
        self._settle_until(-1, tau)

    def __len__(self) -> int:
        return len(self._state)

    def settled_destinations(self) -> tuple[memoryview, memoryview]:
        """The destinations settled so far and their distances, in
        settle order; views valid until the tree grows or closes."""
        return self._state.settled_destinations()

    def close(self) -> None:
        """Return the pooled state with ``h`` all ``inf``; the tree must
        not be used after."""
        if self.h is None:
            return
        self._state.release()
        self._state = None
        self.h = None


def make_comp_lb(
    tree: _IncrementalSPT,
    in_adjacency,
    target: int,
    total_destinations: int,
    source_bounds: Callable[[int], float],
) -> Callable[[Subspace], float]:
    """Alg. 8 (``CompLB-SPT_I``) over the flat structures.

    At the virtual target (the reverse root) the bound is the smallest
    distance among the settled destinations that are neither banned
    nor on the prefix, plus the prefix weight: a plain scan, since the
    tree has seldom settled more than a handful.  At interior nodes it
    is a loop over the reverse adjacency rows reading the tree's dense
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
            nodes, dists = tree.settled_destinations()
            best = INF
            for v, d in zip(nodes, dists):
                if d < best and v not in banned and v not in prefix:
                    best = d
            if best == INF:
                # Unsettled destinations may still open this subspace
                # later; 0 keeps it alive (Alg. 8 line 8).
                return 0.0 if len(nodes) < total_destinations else INF
            return base + best
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
    tree: _IncrementalSPT,
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
