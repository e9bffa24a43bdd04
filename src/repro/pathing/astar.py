"""A* search with pluggable heuristics (goal-directed Dijkstra).

The paper uses A* in three places: ``CompSP`` (computing the shortest
path inside a subspace, Section 4.2), ``TestLB`` (bounded lower-bound
testing, Alg. 5), and the construction of the partial / incremental
shortest-path trees (Algs. 6–7).  The kernels here cover the first
two; the tree builders live in :mod:`repro.pathing.spt` and
:mod:`repro.core.spt_incremental` because they keep extra state.

A heuristic is any callable ``h(node) -> float`` that never
overestimates the remaining distance to the target.  With the landmark
bounds of :mod:`repro.landmarks.index` the heuristic is consistent, so
a node is settled at most once with its exact distance — the property
Lemma 5.1 relies on.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Collection

from repro.graph.digraph import DiGraph
from repro.pathing.dijkstra import reconstruct_path
from repro.pathing.kernels import resolve_kernel

__all__ = ["astar_path", "bounded_astar_path"]

INF = float("inf")


def astar_path(
    graph: DiGraph,
    source: int,
    target: int,
    heuristic: Callable[[int], float],
    blocked: Collection[int] = (),
    banned_first_hops: Collection[int] = (),
    initial_distance: float = 0.0,
    stats=None,
    kernel: str | None = None,
) -> tuple[tuple[int, ...], float] | None:
    """A* from ``source`` to ``target`` under subspace constraints.

    Semantics match
    :func:`repro.pathing.dijkstra.constrained_shortest_path` (same
    ``blocked`` / ``banned_first_hops`` / ``initial_distance``
    contract) but the queue is ordered by ``g + h``, shrinking the
    explored area when the heuristic is informative.  ``kernel``
    selects the substrate (``"dict"``/``"flat"``; ``None`` = ambient).
    """
    result = bounded_astar_path(
        graph,
        source,
        target,
        heuristic,
        bound=INF,
        blocked=blocked,
        banned_first_hops=banned_first_hops,
        initial_distance=initial_distance,
        stats=stats,
        kernel=kernel,
    )
    return result


def bounded_astar_path(
    graph: DiGraph,
    source: int,
    target: int,
    heuristic: Callable[[int], float],
    bound: float,
    blocked: Collection[int] = (),
    banned_first_hops: Collection[int] = (),
    initial_distance: float = 0.0,
    stats=None,
    info: dict | None = None,
    kernel: str | None = None,
) -> tuple[tuple[int, ...], float] | None:
    """A* that refuses to enqueue nodes whose ``g + h`` exceeds ``bound``.

    This is the paper's ``TestLB`` kernel (Alg. 5): with a finite
    ``bound`` ``τ`` it returns the constrained shortest path when its
    length is ``<= τ`` and ``None`` otherwise — and in the latter case
    it has only explored nodes with estimated distance ``<= τ``
    (Lemma 5.1).  With ``bound = inf`` it degenerates to plain A*
    (``CompSP``).

    When ``info`` is given, ``info["pruned"]`` is set to whether any
    relaxation was rejected *because of the bound*.  A failed search
    that pruned nothing explored everything reachable, proving the
    subspace empty — the iteratively-bounding driver uses this to
    retire dead subspaces instead of growing ``τ`` forever.

    With ``kernel="flat"`` the identical search runs over the graph's
    cached CSR arrays (:func:`repro.pathing.flat.flat_bounded_astar_path`)
    with pooled scratch buffers; results and ``info`` semantics match
    the dict substrate exactly.

    Returns ``(path, length)`` — lengths include ``initial_distance``
    — or ``None``.
    """
    chosen = resolve_kernel(kernel)
    if chosen == "flat":
        from repro.graph.csr import shared_csr
        from repro.pathing.flat import flat_bounded_astar_path

        if stats is not None:
            stats.flat_kernel_calls += 1
        return flat_bounded_astar_path(
            shared_csr(graph),
            source,
            target,
            heuristic,
            bound,
            blocked=blocked,
            banned_first_hops=banned_first_hops,
            initial_distance=initial_distance,
            stats=stats,
            info=info,
        )
    if stats is not None:
        stats.dict_kernel_calls += 1
    if info is not None:
        info["pruned"] = False
    if target == source:
        return (source,), initial_distance
    adj = graph.adjacency
    g: dict[int, float] = {source: initial_distance}
    parent: dict[int, int] = {}
    settled: set[int] = set()
    blocked_set = blocked if isinstance(blocked, (set, frozenset)) else set(blocked)
    banned = (
        banned_first_hops
        if isinstance(banned_first_hops, (set, frozenset))
        else set(banned_first_hops)
    )
    start_f = initial_distance + heuristic(source)
    if start_f > bound:
        if info is not None:
            info["pruned"] = True
        return None
    heap: list[tuple[float, int]] = [(start_f, source)]
    if stats is not None:
        stats.heap_pushes += 1
    while heap:
        _, u = heappop(heap)
        if stats is not None:
            stats.heap_pops += 1
        if u in settled:
            continue
        settled.add(u)
        if stats is not None:
            stats.nodes_settled += 1
        du = g[u]
        if u == target:
            return reconstruct_path(parent, source, target), du
        at_source = u == source
        for v, w in adj[u]:
            if v in blocked_set or v in settled:
                continue
            if at_source and v in banned:
                continue
            nd = du + w
            if nd < g.get(v, INF):
                estimate = nd + heuristic(v)
                if estimate > bound:
                    if info is not None:
                        info["pruned"] = True
                    continue
                g[v] = nd
                parent[v] = u
                heappush(heap, (estimate, v))
                if stats is not None:
                    stats.edges_relaxed += 1
                    stats.heap_pushes += 1
    return None
