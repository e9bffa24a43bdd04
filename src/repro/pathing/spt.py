"""Shortest-path trees.

Three flavours appear in the paper:

* The **full SPT** rooted at the (virtual) target — DA-SPT builds one
  per query (Section 3); it stores, for every node, the exact distance
  to the target and the next hop toward it.
* The **partial SPT** ``SPT_P`` (Alg. 6) — a by-product of the very
  first shortest-path computation: an A* run *backward* from the
  destination set toward the source; only the nodes settled before the
  source are kept, and for those the distance to the destination set
  is exact (Prop. 5.1).
* The **incremental SPT** ``SPT_I`` (Alg. 7) grows *forward* from the
  source on demand; it keeps live queue state between enlargements and
  therefore lives with its consumer in
  :mod:`repro.core.spt_incremental`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Sequence

from repro.graph.digraph import DiGraph, ReversedView
from repro.graph.virtual import OverlayRows
from repro.pathing.dijkstra import multi_source_distances

__all__ = [
    "ShortestPathTree",
    "build_spt_to_target",
    "canonical_next_hops",
    "PartialSPT",
    "build_partial_spt",
]

INF = float("inf")


class ShortestPathTree:
    """Full shortest-path tree toward a single target node.

    ``dist[v]`` is the exact distance from ``v`` to the target
    (``inf`` if the target is unreachable from ``v``); ``next_hop[v]``
    is ``v``'s successor on a shortest path (``-1`` at the target and
    at unreachable nodes).
    """

    __slots__ = ("target", "dist", "next_hop")

    def __init__(self, target: int, dist: list[float], next_hop: list[int]) -> None:
        self.target = target
        self.dist = dist
        self.next_hop = next_hop

    def distance(self, v: int) -> float:
        """Exact distance from ``v`` to the target."""
        return self.dist[v]

    def path_from(self, v: int) -> tuple[int, ...] | None:
        """The tree path ``v -> ... -> target``; ``None`` if unreachable."""
        if self.dist[v] == INF:
            return None
        path = [v]
        node = v
        while node != self.target:
            node = self.next_hop[node]
            path.append(node)
        return tuple(path)

    def __contains__(self, v: int) -> bool:
        return self.dist[v] != INF


def canonical_next_hops(graph: DiGraph, target: int, dist) -> list[int]:
    """Deterministic tree successors recomputed from exact distances.

    Every Dijkstra produces the same ``dist`` vector, but the successor
    it records for a node is an accident of relaxation order — with
    zero-weight or equal-weight ties scipy's C loop and the Python loop
    pick different (equally shortest) trees, and downstream consumers
    that branch on tree *shape* (DA-SPT's Pascoal simplicity check)
    would then do installation-dependent amounts of work.  This pass
    rebuilds ``next_hop`` as a pure function of
    ``(graph, target, dist)``: nodes are finalised in ``(dist, id)``
    order from the target outward, and each node adopts the
    first-finalised successor among its tight edges (``dist[v] ==
    w + dist[u]`` — exact, because every Dijkstra computes ``dist[v]``
    as that very sum for at least one edge).  Successors always point
    at earlier-finalised nodes, so the tree is acyclic even across
    zero-weight cycles, and identical with or without scipy.
    """
    radj = graph.reverse_adjacency()
    n = graph.n
    next_hop = [-1] * n
    done = [False] * n
    heap: list[tuple[float, int]] = [(0.0, target)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in radj[u]:
            if not done[v] and next_hop[v] == -1 and dist[v] == d + w:
                next_hop[v] = u
                heappush(heap, (dist[v], v))
    next_hop[target] = -1
    return next_hop


def build_spt_to_target(graph: DiGraph, target: int) -> ShortestPathTree:
    """The full SPT toward ``target``: Dijkstra on the reverse graph.

    This is the expensive per-query step of DA-SPT; its cost is what
    Figures 7(e)–7(f) show dominating when the k shortest paths are
    short.  The distances come from the whole-graph sweep of
    :func:`~repro.pathing.dijkstra.multi_source_distances` (scipy over
    the cached CSR where available), which records no per-node work
    counters.  Toward the virtual target of a ``G_Q`` overlay the
    sweep runs on the base graph, seeded with every destination —
    the virtual target's in-edges are exactly ``V_T`` at weight zero —
    so no export of ``G_Q`` is ever built.

    The successor pointers come from :func:`canonical_next_hops`, so
    the returned *tree* — not just the distance vector — is a pure
    function of the graph.
    """
    rows = graph.adjacency
    if isinstance(rows, OverlayRows) and target == rows.base.n:
        dist = multi_source_distances(ReversedView(rows.base), rows.destinations)
        dist.append(0.0)  # the virtual target
        if rows.sources:  # GKPJ's virtual source: zero-weight edges to V_S
            dist.append(min(dist[s] for s in rows.sources))
    else:
        dist = multi_source_distances(ReversedView(graph), (target,))
    return ShortestPathTree(target, dist, canonical_next_hops(graph, target, dist))


class PartialSPT:
    """The paper's ``SPT_P`` (Section 5.2).

    Holds exact distances-to-destination-set for the nodes settled by
    the backward A* of Alg. 6 (:func:`build_partial_spt`).  For any
    other node the caller falls back to the landmark estimate — the
    tree value always dominates it (Prop. 5.1), and for lower bounds
    larger is better.
    """

    __slots__ = ("dist_to_targets", "next_hop", "source_path")

    def __init__(
        self,
        dist_to_targets: dict[int, float],
        next_hop: dict[int, int],
        source_path: tuple[int, ...] | None,
    ) -> None:
        self.dist_to_targets = dist_to_targets
        self.next_hop = next_hop
        self.source_path = source_path

    def __contains__(self, v: int) -> bool:
        return v in self.dist_to_targets

    def __len__(self) -> int:
        return len(self.dist_to_targets)

    def distance(self, v: int) -> float | None:
        """Exact distance from ``v`` to the destination set, if settled."""
        return self.dist_to_targets.get(v)


def build_partial_spt(
    graph: DiGraph,
    source: int,
    destinations: Sequence[int],
    source_bound: Callable[[int], float],
    stats=None,
) -> PartialSPT:
    """Alg. 6 (``PartialSPT``): backward A* from ``destinations``.

    Runs on the reverse graph, seeded with every destination at
    distance 0, prioritised by ``dist-to-destinations + lb(source, w)``
    where ``source_bound(w)`` is a lower bound on the distance from
    the query source to ``w`` (landmark-estimated).  Stops as soon as
    the source is settled, which is exactly when the query's first
    shortest path is known — so the tree is a by-product of work the
    query had to do anyway.

    Returns the tree; ``source_path`` is the shortest path
    ``source -> ... -> destination`` (``None`` if unreachable).
    """
    radj = graph.reverse_adjacency()
    dist: dict[int, float] = {}
    next_hop: dict[int, int] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = []
    for v in destinations:
        dist[v] = 0.0
        heappush(heap, (source_bound(v), v))
    source_path: tuple[int, ...] | None = None
    while heap:
        _, u = heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if stats is not None:
            stats.nodes_settled += 1
        if u == source:
            path = [u]
            node = u
            while node in next_hop:
                node = next_hop[node]
                path.append(node)
            source_path = tuple(path)
            break
        du = dist[u]
        for v, w in radj[u]:
            if v in settled:
                continue
            nd = du + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                next_hop[v] = u
                heappush(heap, (nd + source_bound(v), v))
                if stats is not None:
                    stats.edges_relaxed += 1
    settled_dist = {v: dist[v] for v in settled}
    settled_hop = {v: next_hop[v] for v in settled if v in next_hop}
    return PartialSPT(settled_dist, settled_hop, source_path)
