"""Classic Yen's algorithm — an independent correctness oracle.

This is the textbook formulation of Yen (1971): for every spur node of
the previous result path, ban the outgoing edges used by already-
chosen paths sharing the same root, and run a constrained shortest-
path search.  It shares *no* code with the pseudo-tree implementation
of :mod:`repro.baselines.deviation`, nor with the search substrate of
:mod:`repro.pathing` — its constrained Dijkstra below keeps its own
dict state — which makes it a genuinely independent oracle for the
cross-algorithm equivalence tests.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Collection

from repro.core.result import Path
from repro.core.stats import SearchStats
from repro.graph.digraph import DiGraph

__all__ = ["yen_ksp"]

INF = float("inf")


def _constrained_dijkstra(
    graph: DiGraph,
    source: int,
    target: int,
    blocked: Collection[int] = (),
    banned_first_hops: Collection[int] = (),
    initial_distance: float = 0.0,
    stats: SearchStats | None = None,
) -> tuple[tuple[int, ...], float] | None:
    """Dijkstra from ``source`` to ``target`` avoiding ``blocked`` nodes
    and, out of ``source``, the ``banned_first_hops``; reported lengths
    include ``initial_distance``.  ``None`` when no path survives."""
    if source == target:
        return (source,), initial_distance
    adj = graph.adjacency
    dist: dict[int, float] = {source: initial_distance}
    parent: dict[int, int] = {}
    settled: set[int] = set()
    blocked_set = set(blocked)
    banned = set(banned_first_hops)
    heap: list[tuple[float, int]] = [(initial_distance, source)]
    if stats is not None:
        stats.heap_pushes += 1
    while heap:
        d, u = heappop(heap)
        if stats is not None:
            stats.heap_pops += 1
        if u in settled:
            continue
        settled.add(u)
        if stats is not None:
            stats.nodes_settled += 1
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(parent[path[-1]])
            path.reverse()
            return tuple(path), d
        at_source = u == source
        for v, w in adj[u]:
            if v in blocked_set or v in settled:
                continue
            if at_source and v in banned:
                continue
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
                if stats is not None:
                    stats.edges_relaxed += 1
                    stats.heap_pushes += 1
    return None


def yen_ksp(
    graph: DiGraph,
    source: int,
    target: int,
    k: int,
    stats: SearchStats | None = None,
) -> list[Path]:
    """Top-``k`` shortest simple paths from ``source`` to ``target``.

    Works on any :class:`DiGraph` (no virtual transform required);
    returns non-decreasing lengths, fewer than ``k`` if the graph runs
    out of simple paths.
    """
    stats = stats if stats is not None else SearchStats()
    stats.shortest_path_computations += 1
    first = _constrained_dijkstra(graph, source, target)
    if first is None:
        return []
    results: list[Path] = [Path(length=first[1], nodes=first[0])]
    tie = count()
    candidates: list[tuple[float, int, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = {first[0]}

    while len(results) < k:
        previous = results[-1].nodes
        for j in range(len(previous) - 1):
            root = previous[: j + 1]
            spur = previous[j]
            banned = {
                p.nodes[j + 1]
                for p in results
                if len(p.nodes) > j + 1 and p.nodes[: j + 1] == root
            }
            root_weight = graph.path_weight(root)
            stats.shortest_path_computations += 1
            found = _constrained_dijkstra(
                graph,
                spur,
                target,
                blocked=root[:-1],
                banned_first_hops=banned,
                initial_distance=root_weight,
                stats=stats,
            )
            if found is None:
                continue
            tail, length = found
            candidate = root[:-1] + tail
            if candidate not in seen:
                seen.add(candidate)
                heappush(candidates, (length, next(tie), candidate))
        if not candidates:
            break
        length, _, path = heappop(candidates)
        results.append(Path(length=length, nodes=path))
    return results
