"""The BestFirst algorithm (Section 4, Algs. 2–3).

BestFirst replaces the deviation paradigm's eager candidate-path
computation with a priority queue of *subspaces* keyed by lower
bounds.  A subspace's shortest path is computed only when the
subspace reaches the top of the queue — i.e. only when its lower
bound is smaller than every other pending bound — so subspaces whose
bounds exceed the final ``k``-th length are never searched at all
(Lemma 4.1: the set of shortest-path computations is a subset of
DA's).

Each queue entry is ``<S, lb(S), P>`` where ``P`` is the subspace's
shortest path once computed; a subspace is popped at most twice
(once per state).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Callable

from repro.core.flat_engine import dense_heuristic
from repro.core.result import Path
from repro.core.stats import SearchStats
from repro.core.subspace import Subspace, compute_lower_bound, divide
from repro.graph.virtual import QueryGraph
from repro.pathing.astar import astar_path

__all__ = ["best_first"]

INF = float("inf")


def best_first(
    query_graph: QueryGraph,
    k: int,
    heuristic: Callable[[int], float],
    stats: SearchStats | None = None,
) -> list[Path]:
    """Top-``k`` shortest simple paths from source to virtual target.

    Parameters
    ----------
    query_graph:
        The ``G_Q`` transform of the query (see
        :func:`repro.graph.virtual.build_query_graph`).
    k:
        Number of paths to return.
    heuristic:
        Lower bound ``lb(v, V_T)`` used both in ``CompLB`` and as the
        A* heuristic of ``CompSP`` — a
        :class:`~repro.landmarks.index.TargetBounds` instance (Eq. 2)
        or :data:`~repro.landmarks.index.ZERO_BOUNDS`.
    stats:
        Optional instrumentation sink.

    Returns
    -------
    Paths *in ``G_Q`` coordinates* (ending at the virtual target),
    non-decreasing in length; the facade strips virtual nodes.
    """
    graph = query_graph.graph
    adjacency = graph.adjacency
    # CompSP indexes the dense bound vector; CompLB calls the bound.
    search_h = dense_heuristic(heuristic, graph.n)
    source, target = query_graph.source, query_graph.target
    stats = stats if stats is not None else SearchStats()

    tie = count()
    # Heap entries: (lower bound, tiebreak, subspace, path-or-None).
    queue: list[tuple[float, int, Subspace, tuple[int, ...] | None]] = []
    root = Subspace.entire(source)
    heappush(queue, (heuristic(source), next(tie), root, None))
    stats.subspaces_created += 1

    results: list[Path] = []
    edge_weight = graph.edge_weight
    while queue and len(results) < k:
        bound, _, subspace, path = heappop(queue)
        if path is not None:
            results.append(Path(length=bound, nodes=path))
            for child in divide(subspace, path, bound, edge_weight):
                stats.subspaces_created += 1
                stats.lower_bound_computations += 1
                child_bound = compute_lower_bound(adjacency, child, heuristic)
                if child_bound == INF:
                    stats.subspaces_pruned += 1
                    continue
                if child_bound < bound:
                    child_bound = bound  # children cannot beat the parent's path
                heappush(queue, (child_bound, next(tie), child, None))
            continue
        stats.shortest_path_computations += 1
        found = astar_path(
            graph,
            subspace.head,
            target,
            search_h,
            # The whole prefix: the kernel re-opens its source (the head).
            blocked=subspace.prefix,
            banned_first_hops=subspace.banned,
            initial_distance=subspace.prefix_weight,
            stats=stats,
        )
        if found is None:
            stats.subspaces_pruned += 1
            continue
        tail, length = found
        full_path = subspace.prefix[:-1] + tail
        heappush(queue, (length, next(tie), subspace, full_path))
    stats.subspaces_pruned += sum(1 for entry in queue if entry[3] is None)
    return results
