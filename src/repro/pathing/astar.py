"""A* search with pluggable heuristics (goal-directed Dijkstra).

The paper uses A* in three places: ``CompSP`` (computing the shortest
path inside a subspace, Section 4.2), ``TestLB`` (bounded lower-bound
testing, Alg. 5), and the construction of the partial / incremental
shortest-path trees (Algs. 6–7).  :func:`bounded_astar_path` here is
the one kernel behind the first two — and, with the zero heuristic,
behind DA's constrained Dijkstra; the tree builders live in
:mod:`repro.pathing.spt` and :mod:`repro.core.flat_engine` because
they keep extra state.

A heuristic is ``None`` (zero), a dense sequence indexed by node, or a
callable ``h(node) -> float`` that never overestimates the remaining
distance to the target.  With the landmark bounds of
:mod:`repro.landmarks.index` the heuristic is consistent, so a node is
settled at most once with its exact distance — the property Lemma 5.1
relies on.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Collection, Sequence

from repro.graph.digraph import DiGraph
from repro.pathing.flat import acquire_scratch, release_scratch, row_source

__all__ = ["astar_path", "bounded_astar_path"]

INF = float("inf")


def astar_path(
    graph: DiGraph,
    source: int,
    target: int,
    heuristic: Callable[[int], float] | Sequence[float] | None,
    blocked: Collection[int] = (),
    banned_first_hops: Collection[int] = (),
    initial_distance: float = 0.0,
    stats=None,
) -> tuple[tuple[int, ...], float] | None:
    """A* from ``source`` to ``target`` under subspace constraints.

    Semantics match
    :func:`repro.pathing.dijkstra.constrained_shortest_path` (same
    ``blocked`` / ``banned_first_hops`` / ``initial_distance``
    contract) but the queue is ordered by ``g + h``, shrinking the
    explored area when the heuristic is informative.
    """
    return bounded_astar_path(
        graph,
        source,
        target,
        heuristic,
        bound=INF,
        blocked=blocked,
        banned_first_hops=banned_first_hops,
        initial_distance=initial_distance,
        stats=stats,
    )


def bounded_astar_path(
    graph: DiGraph,
    source: int,
    target: int,
    heuristic: Callable[[int], float] | Sequence[float] | None,
    bound: float,
    blocked: Collection[int] = (),
    banned_first_hops: Collection[int] = (),
    initial_distance: float = 0.0,
    stats=None,
    info: dict | None = None,
    collect_dists: bool = False,
) -> tuple[tuple[int, ...], float] | None:
    """A* that refuses to enqueue nodes whose ``g + h`` exceeds ``bound``.

    This is the paper's ``TestLB`` kernel (Alg. 5): with a finite
    ``bound`` ``τ`` it returns the constrained shortest path when its
    length is ``<= τ`` and ``None`` otherwise — and in the latter case
    it has only explored nodes with estimated distance ``<= τ``
    (Lemma 5.1).  With ``bound = inf`` it degenerates to plain A*
    (``CompSP``), and with ``heuristic=None`` to Dijkstra.

    When ``info`` is given, ``info["pruned"]`` is set to whether any
    relaxation was rejected *because of the bound*.  A failed search
    that pruned nothing explored everything reachable, proving the
    subspace empty — the iteratively-bounding driver uses this to
    retire dead subspaces instead of growing ``τ`` forever.

    ``graph`` is any :class:`DiGraph` or reversed view, ``G_Q``
    overlays included; rows are read through
    :func:`~repro.pathing.flat.row_source` and per-node state lives in
    a pooled :class:`~repro.pathing.flat.FlatScratch`, so a call costs
    no allocation proportional to ``n``:

    * ``heuristic`` may be a *dense sequence* — ``h[v]`` is then read
      by index instead of through a Python call per relaxation (this
      is how the iterative-bounding engine supplies the landmark bound
      vector, or the incremental tree's distance array);
    * ``blocked`` is any iterable of node ids (a subspace prefix works
      as-is, head included): the nodes are pre-stamped "settled" in
      the scratch, ``O(|blocked|)`` setup with **zero** per-edge
      membership cost, and the search source is re-opened afterwards.

    With ``collect_dists=True`` (and ``info`` given) a successful
    search additionally reports ``info["tail_dists"]`` — the settled
    distance of every path node, aligned with the returned path.
    Entry ``i`` is exactly the prefix weight of ``path[: i + 1]``
    (the same left-to-right float accumulation a caller would redo
    with per-edge weight lookups), which lets the iterative-bounding
    engine divide subspaces without touching adjacency again.

    Returns ``(path, length)`` — lengths include ``initial_distance``
    — or ``None``.
    """
    if info is not None:
        info["pruned"] = False
        if collect_dists:
            info["tail_dists"] = None
    if target == source:
        if info is not None and collect_dists:
            info["tail_dists"] = [initial_distance]
        return (source,), initial_distance
    h = heuristic
    if h is None or callable(h):
        h_arr = None
    else:
        h_arr = h
        h = None
    if h_arr is not None:
        start_f = initial_distance + h_arr[source]
    elif h is not None:
        start_f = initial_distance + h(source)
    else:
        start_f = initial_distance
    if start_f > bound:
        if info is not None:
            info["pruned"] = True
        return None
    base_rows, patched = row_source(graph)
    scratch = acquire_scratch(graph)
    settled_count = 0
    relaxed_count = 0
    pop_count = 0
    bound_pruned = False  # batched into info["pruned"] in the finally
    try:
        gen = scratch.begin()
        dist = scratch.dist
        parent = scratch.parent
        stamp = scratch.stamp
        settled_gen = -gen  # stamp value marking "settled this search"
        banned = (
            banned_first_hops
            if isinstance(banned_first_hops, (set, frozenset))
            else set(banned_first_hops)
        )
        # Blocked nodes are pre-stamped "settled": the relaxation loop's
        # existing settled check then rejects them for free, with no
        # per-edge membership test.  They are never pushed, so never
        # popped or counted.  Stamping the source back to ``gen``
        # afterwards makes passing a whole path prefix (head included)
        # equivalent to blocking ``prefix[:-1]``.
        for b in blocked:
            stamp[b] = settled_gen
        dist[source] = initial_distance
        stamp[source] = gen
        heap: list[tuple[float, int]] = [(start_f, source)]
        while heap:
            _, u = heappop(heap)
            pop_count += 1
            if stamp[u] == settled_gen:
                continue
            stamp[u] = settled_gen
            settled_count += 1
            du = dist[u]
            if u == target:
                path = [target]
                node = target
                while node != source:
                    node = parent[node]
                    path.append(node)
                path.reverse()
                if info is not None and collect_dists:
                    info["tail_dists"] = [dist[x] for x in path]
                return tuple(path), du
            at_source = u == source
            for v, w in patched[u] if u in patched else base_rows[u]:
                st = stamp[v]
                if st == settled_gen:
                    continue
                if at_source and v in banned:
                    continue
                nd = du + w
                if st != gen or nd < dist[v]:
                    if h_arr is not None:
                        estimate = nd + h_arr[v]
                    elif h is not None:
                        estimate = nd + h(v)
                    else:
                        estimate = nd
                    if estimate > bound:
                        bound_pruned = True
                        continue
                    dist[v] = nd
                    parent[v] = u
                    stamp[v] = gen
                    heappush(heap, (estimate, v))
                    relaxed_count += 1
        return None
    finally:
        release_scratch(scratch)
        if info is not None and bound_pruned:
            info["pruned"] = True
        if stats is not None:
            stats.nodes_settled += settled_count
            stats.edges_relaxed += relaxed_count
            # Every push is either the initial source push or one of
            # the counted relaxations, so pushes = relaxed + 1 here.
            stats.heap_pushes += relaxed_count + 1
            stats.heap_pops += pop_count
