"""Dijkstra's algorithm: whole-graph distances and the constrained search.

Two entry points cover every plain (heuristic-free) Dijkstra in the
package:

* :func:`multi_source_distances` (and :func:`single_source_distances`)
  — a whole-graph sweep: scipy's C Dijkstra over the graph's cached
  CSR export when scipy imports, otherwise one Python loop over the
  rows (:mod:`repro.pathing.flat`);
* :func:`constrained_shortest_path` — what subspace search needs: a
  set of *blocked* nodes (the prefix ``P_{s,u}`` minus its endpoint,
  which may not be re-entered) and a set of *banned first hops* out
  of the start node (the excluded edge set ``X_u`` of a subspace).
  It is the bounded A* kernel of :mod:`repro.pathing.astar` run with
  the zero heuristic and no bound.

Cutoff semantics are **inclusive**: a node whose shortest distance is
exactly ``cutoff`` is settled and reported; only nodes strictly beyond
it keep ``inf``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Collection, Sequence

from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph
from repro.pathing.astar import bounded_astar_path
from repro.pathing.flat import scipy_csr, scipy_dijkstra, sparse_matrix

__all__ = [
    "single_source_distances",
    "multi_source_distances",
    "constrained_shortest_path",
]

INF = float("inf")


def single_source_distances(
    graph: DiGraph, source: int, cutoff: float = INF
) -> list[float]:
    """Distances from ``source`` to every node (``inf`` if unreachable).

    ``cutoff`` stops the search once the frontier exceeds that value;
    nodes at distance exactly ``cutoff`` are still settled (inclusive
    boundary), nodes strictly beyond it keep distance ``inf``.
    """
    return multi_source_distances(graph, (source,), cutoff=cutoff)


def multi_source_distances(
    graph: DiGraph,
    sources: Sequence[int],
    cutoff: float = INF,
) -> list[float]:
    """Distances from the nearest of ``sources`` to every node.

    Used to select landmarks and build their distance arrays, to
    stratify query workloads (distance from each node to a destination
    category equals a multi-source run on the reverse graph) and for
    the full SPT of DA-SPT.  The ``cutoff`` boundary is inclusive, as
    in :func:`single_source_distances`.  No work counters are recorded
    on either path.
    """
    csr = scipy_csr(graph)
    if csr is not None:
        srcs = sorted(set(int(s) for s in sources))
        return scipy_dijkstra(
            sparse_matrix(csr),
            directed=True,
            indices=srcs if len(srcs) > 1 else srcs[0],
            min_only=len(srcs) > 1,
            limit=cutoff,
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


def constrained_shortest_path(
    graph: DiGraph,
    source: int,
    target: int,
    blocked: Collection[int] = (),
    banned_first_hops: Collection[int] = (),
    initial_distance: float = 0.0,
    stats=None,
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
        relaxation and heap counters are bumped when provided.

    Returns
    -------
    ``(path, length)`` where ``path`` starts at ``source`` and ends at
    ``target``, or ``None`` when no path survives the constraints.

    Raises
    ------
    QueryError
        If ``source`` or ``target`` is in ``blocked``.
    """
    if blocked and (source in blocked or target in blocked):
        role, endpoint = (
            ("source", source) if source in blocked else ("target", target)
        )
        raise QueryError(
            f"search {role} {endpoint} is in the blocked set; a blocked "
            "endpoint can never lie on a constraint-satisfying path"
        )
    return bounded_astar_path(
        graph,
        source,
        target,
        None,
        INF,
        blocked=blocked,
        banned_first_hops=banned_first_hops,
        initial_distance=initial_distance,
        stats=stats,
    )
