"""DA-SPT — the deviation algorithm with a full shortest-path tree.

The state of the art for KSP before the paper (Pascoal '06, Gao et
al. '10/'12, Section 3).  One full SPT rooted at the (virtual) target
is built per query; candidate paths are then computed by:

1. **Pascoal's constant-time check** — the best one-hop extension
   ``prefix + (u, v) + SPT-path(v)`` is the candidate whenever it is
   simple;
2. **Gao's iterative test** otherwise — an A* guided by the exact SPT
   distances that, each time it settles a node ``v``, checks whether
   gluing the SPT path of ``v`` onto the search path yields a simple
   path and shortcuts the search if so.

The full-SPT build is the weakness the paper exploits: its cost is
insensitive to the query (Figures 7(e)–(f) show DA-SPT *flat* and
losing when the k shortest paths are short).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count

from repro.baselines.pseudo_tree import PseudoTree, PTVertex
from repro.core.result import Path
from repro.core.stats import SearchStats
from repro.graph.virtual import QueryGraph
from repro.pathing.spt import ShortestPathTree, build_spt_to_target

__all__ = ["deviation_spt", "spt_candidate"]

INF = float("inf")


def spt_candidate(
    graph,
    spt: ShortestPathTree,
    prefix: tuple[int, ...],
    prefix_weight: float,
    banned_first_hops: set[int],
    stats: SearchStats | None = None,
):
    """Shortest simple path extending ``prefix`` (avoiding the banned
    first hops) to the SPT's target, using the SPT for both the
    Pascoal fast path and as the A* heuristic of the Gao search.

    Returns ``(full_path, length)`` or ``None``.
    """
    u = prefix[-1]
    blocked = set(prefix)  # includes u: the extension may not revisit it
    target = spt.target
    dist = spt.dist

    # Pascoal: try the cheapest one-hop extension first.
    best_v, best_estimate = -1, INF
    for v, w in graph.adjacency[u]:
        if v in blocked or v in banned_first_hops:
            continue
        estimate = w + dist[v]
        if estimate < best_estimate:
            best_estimate = estimate
            best_v = v
    if best_v < 0:
        return None
    if best_estimate < INF:
        tree_path = spt.path_from(best_v)
        if tree_path is not None and blocked.isdisjoint(tree_path):
            return prefix + tree_path, prefix_weight + best_estimate

    # Gao: A* from u with h(v) = exact distance-to-target; on every
    # settle, test whether the SPT path completes a simple candidate.
    if stats is not None:
        stats.shortest_path_computations += 1
    g: dict[int, float] = {u: 0.0}
    parent: dict[int, int] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = []
    if dist[u] < INF:
        heap.append((dist[u], u))
    adjacency = graph.adjacency
    while heap:
        _, x = heappop(heap)
        if x in settled:
            continue
        settled.add(x)
        if stats is not None:
            stats.nodes_settled += 1
        # Reconstruct the search path u -> ... -> x.
        walk = [x]
        node = x
        while node != u:
            node = parent[node]
            walk.append(node)
        walk.reverse()
        if x == target:
            return prefix + tuple(walk[1:]), prefix_weight + g[x]
        tree_path = spt.path_from(x)
        # At the start node the tree path's first hop must also respect
        # the excluded-edge set of the subspace.
        first_hop_ok = x != u or (
            tree_path is not None
            and len(tree_path) > 1
            and tree_path[1] not in banned_first_hops
        )
        if tree_path is not None and first_hop_ok:
            on_search = set(walk)
            if blocked.isdisjoint(tree_path[1:]) and on_search.isdisjoint(
                tree_path[1:]
            ):
                full = prefix + tuple(walk[1:]) + tree_path[1:]
                return full, prefix_weight + g[x] + dist[x]
        gx = g[x]
        at_start = x == u
        for v, w in adjacency[x]:
            if v in blocked or v in settled:
                continue
            if at_start and v in banned_first_hops:
                continue
            nd = gx + w
            if nd < g.get(v, INF):
                hv = dist[v]
                if hv == INF:
                    continue
                g[v] = nd
                parent[v] = x
                heappush(heap, (nd + hv, v))
                if stats is not None:
                    stats.edges_relaxed += 1
    return None


def deviation_spt(
    query_graph: QueryGraph,
    k: int,
    stats: SearchStats | None = None,
) -> list[Path]:
    """Top-``k`` shortest simple paths on ``G_Q`` via DA-SPT.

    Returns paths in ``G_Q`` coordinates, non-decreasing in length.
    """
    stats = stats if stats is not None else SearchStats()
    graph = query_graph.graph
    source, target = query_graph.source, query_graph.target
    spt = build_spt_to_target(graph, target)
    stats.spt_nodes = sum(1 for d in spt.dist if d != INF)

    def candidate(vertex: PTVertex):
        return spt_candidate(
            graph,
            spt,
            vertex.prefix,
            vertex.prefix_weight,
            vertex.used_hops,
            stats=stats,
        )

    tree = PseudoTree(source)
    tie = count()
    candidates: list[tuple[float, int, tuple[int, ...], PTVertex]] = []
    first = candidate(tree.root)
    if first is not None:
        path, length = first
        heappush(candidates, (length, next(tie), path, tree.root))

    results: list[Path] = []
    edge_weight = graph.edge_weight
    while candidates and len(results) < k:
        length, _, path, vertex = heappop(candidates)
        results.append(Path(length=length, nodes=path))
        weights = [edge_weight(a, b) for a, b in zip(path, path[1:])]
        deviation, new_vertices = tree.insert(path, weights)
        for refresh in (deviation, *new_vertices[:-1]):
            found = candidate(refresh)
            if found is not None:
                new_path, new_length = found
                heappush(candidates, (new_length, next(tie), new_path, refresh))
    return results
