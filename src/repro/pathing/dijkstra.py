"""Dijkstra's algorithm and constrained variants.

These are the workhorse kernels.  By default they operate directly on
the raw adjacency lists of a :class:`~repro.graph.digraph.DiGraph`
(lists of ``(v, w)`` tuples) with ``heapq`` and lazy deletion — the
fastest arrangement available in pure CPython.  Every entry point also
accepts ``kernel="flat"`` to run the equivalent search from
:mod:`repro.pathing.flat` over the graph's cached CSR arrays instead
(scipy-accelerated where available); ``kernel=None`` defers to the
ambient selection of :mod:`repro.pathing.kernels`.

The constrained variant is what subspace search needs: a set of
*blocked* nodes (the prefix ``P_{s,u}`` minus its endpoint, which may
not be re-entered) and a set of *banned first hops* out of the start
node (the excluded edge set ``X_u`` of a subspace).

Cutoff semantics are **inclusive**: a node whose shortest distance is
exactly ``cutoff`` is settled and reported; only nodes strictly beyond
it keep ``inf``.  Both substrates share this boundary behaviour.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Collection, Sequence

from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph
from repro.pathing.kernels import resolve_kernel

__all__ = [
    "single_source_distances",
    "multi_source_distances",
    "shortest_path",
    "constrained_shortest_path",
    "reconstruct_path",
]

INF = float("inf")


def single_source_distances(
    graph: DiGraph, source: int, cutoff: float = INF, kernel: str | None = None
) -> list[float]:
    """Distances from ``source`` to every node (``inf`` if unreachable).

    ``cutoff`` stops the search once the frontier exceeds that value;
    nodes at distance exactly ``cutoff`` are still settled (inclusive
    boundary), nodes strictly beyond it keep distance ``inf``.
    ``kernel`` selects the search substrate
    (``"dict"``/``"flat"``; ``None`` = ambient).
    """
    return multi_source_distances(graph, (source,), cutoff=cutoff, kernel=kernel)


def multi_source_distances(
    graph: DiGraph,
    sources: Sequence[int],
    cutoff: float = INF,
    kernel: str | None = None,
) -> list[float]:
    """Distances from the nearest of ``sources`` to every node.

    Used to stratify query workloads (distance from each node to a
    destination category equals a multi-source run on the reverse
    graph) and to compute Eq. (2)'s per-landmark target distances.
    The ``cutoff`` boundary is inclusive, as in
    :func:`single_source_distances`.
    """
    chosen = resolve_kernel(kernel)
    if chosen == "flat":
        from repro.graph.csr import shared_csr
        from repro.pathing.flat import flat_multi_source_distances

        return flat_multi_source_distances(
            shared_csr(graph), sources, cutoff=cutoff
        ).tolist()
    adj = graph.adjacency
    dist = [INF] * graph.n
    heap: list[tuple[float, int]] = []
    for s in sources:
        if dist[s] > 0.0:
            dist[s] = 0.0
            heap.append((0.0, s))
    heap.sort()
    while heap:
        d, u = heappop(heap)
        if d > dist[u] or d > cutoff:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] and nd <= cutoff:
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist


def shortest_path(
    graph: DiGraph, source: int, target: int, kernel: str | None = None
) -> tuple[tuple[int, ...], float] | None:
    """Shortest path from ``source`` to ``target``.

    Returns ``(path, length)`` or ``None`` if ``target`` is
    unreachable.  With ``kernel="flat"`` equal-length ties may resolve
    to a different (equally shortest) path than the dict kernel.
    """
    chosen = resolve_kernel(kernel)
    if chosen == "flat":
        from repro.graph.csr import shared_csr
        from repro.pathing.flat import flat_shortest_path

        return flat_shortest_path(shared_csr(graph), source, target)
    return constrained_shortest_path(graph, source, target, kernel="dict")


def constrained_shortest_path(
    graph: DiGraph,
    source: int,
    target: int,
    blocked: Collection[int] = (),
    banned_first_hops: Collection[int] = (),
    initial_distance: float = 0.0,
    stats=None,
    kernel: str | None = None,
) -> tuple[tuple[int, ...], float] | None:
    """Dijkstra from ``source`` to ``target`` under subspace constraints.

    Parameters
    ----------
    blocked:
        Nodes that may not appear on the path (the interior of a
        subspace prefix).  ``source`` and ``target`` must not be in it
        — a blocked endpoint is a caller bug (the search could only
        ever produce a constraint-violating path or a silent miss), so
        it raises :class:`~repro.exceptions.QueryError` instead of
        returning ``None``.
    banned_first_hops:
        Successors of ``source`` that may not be the first hop (the
        excluded edge set ``X_u``).
    initial_distance:
        Added to every reported length (the prefix weight
        ``w(P_{s,u})``), so returned lengths are full-path lengths.
    stats:
        Optional :class:`~repro.core.stats.SearchStats`; settled-node,
        relaxation, and kernel-dispatch counters are bumped when
        provided.
    kernel:
        Search substrate (``"dict"``/``"flat"``; ``None`` = ambient).

    Returns
    -------
    ``(path, length)`` where ``path`` starts at ``source`` and ends at
    ``target``, or ``None`` when no path survives the constraints.

    Raises
    ------
    QueryError
        If ``source`` or ``target`` is in ``blocked``.
    """
    if blocked:
        if source in blocked:
            raise QueryError(
                f"search source {source} is in the blocked set; a blocked "
                "endpoint can never lie on a constraint-satisfying path"
            )
        if target in blocked:
            raise QueryError(
                f"search target {target} is in the blocked set; a blocked "
                "endpoint can never lie on a constraint-satisfying path"
            )
    chosen = resolve_kernel(kernel)
    if chosen == "flat":
        from repro.graph.csr import shared_csr
        from repro.pathing.flat import flat_constrained_shortest_path

        if stats is not None:
            stats.flat_kernel_calls += 1
        return flat_constrained_shortest_path(
            shared_csr(graph),
            source,
            target,
            blocked=blocked,
            banned_first_hops=banned_first_hops,
            initial_distance=initial_distance,
            stats=stats,
        )
    if stats is not None:
        stats.dict_kernel_calls += 1
    if source == target:
        return (source,), initial_distance
    adj = graph.adjacency
    dist: dict[int, float] = {source: initial_distance}
    parent: dict[int, int] = {}
    settled: set[int] = set()
    blocked_set = blocked if isinstance(blocked, (set, frozenset)) else set(blocked)
    banned = (
        banned_first_hops
        if isinstance(banned_first_hops, (set, frozenset))
        else set(banned_first_hops)
    )
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
            return reconstruct_path(parent, source, target), d
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


def reconstruct_path(
    parent: dict[int, int], source: int, target: int
) -> tuple[int, ...]:
    """Walk a parent map back from ``target`` to ``source``."""
    path = [target]
    node = target
    while node != source:
        node = parent[node]
        path.append(node)
    path.reverse()
    return tuple(path)
