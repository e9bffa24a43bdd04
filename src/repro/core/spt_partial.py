"""``IterBound-SPT_P`` (Section 5.2).

DA-SPT pays for a *full* shortest-path tree before answering anything;
this variant instead keeps the **partial** tree that falls out of the
query's very first shortest-path computation (Alg. 6): the backward
A* from the destination set settles a set of nodes before reaching
the source, and for exactly those nodes the distance to the
destination set is already exact (Prop. 5.1).  ``lb(v, V_T)`` is then
answered from the tree when possible — an exact value always
dominates the landmark estimate, and for lower bounds larger is
better — and from Eq. (2) otherwise.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

import numpy as np

from repro.core.iter_bound import iter_bound_search
from repro.core.result import Path
from repro.core.stats import SearchStats
from repro.graph.virtual import QueryGraph
from repro.pathing.spt import PartialSPT, build_partial_spt

__all__ = ["SPTPHeuristic", "iter_bound_sptp"]


class SPTPHeuristic:
    """``lb(v, V_T)`` backed by ``SPT_P`` with a landmark fallback.

    Tree hits return the exact distance to the destination set;
    misses fall back to the supplied bound (Eq. (2) or zero).
    Virtual nodes resolve through the fallback, which already maps
    them to 0.
    """

    __slots__ = ("_tree_dist", "_fallback")

    def __init__(self, tree: PartialSPT, fallback: Callable[[int], float]) -> None:
        self._tree_dist = tree.dist_to_targets
        self._fallback = fallback

    def __call__(self, v: int) -> float:
        exact = self._tree_dist.get(v)
        if exact is not None:
            return exact
        return self._fallback(v)

    def dense(self, size: int) -> memoryview:
        """Flat-engine form: the fallback vector with the tree overlaid.

        Entry ``v`` equals ``self(v)`` for every ``v < size``, so the
        search engine can index instead of calling.  Not cached — the
        tree is per-query and the copy is one ``O(n)`` float64 pass.
        """
        densify = getattr(self._fallback, "dense", None)
        fallback = densify(size) if densify is not None else self._fallback
        if fallback is None:  # the zero bound
            mirror = np.zeros(size)
        elif callable(fallback):
            mirror = np.fromiter(map(fallback, range(size)), float, size)
        else:
            mirror = np.array(fallback[:size])
        tree = self._tree_dist
        if tree:
            mirror[np.fromiter(tree.keys(), np.int64, len(tree))] = np.fromiter(
                tree.values(), float, len(tree)
            )
        return memoryview(mirror)


def iter_bound_sptp(
    query_graph: QueryGraph,
    k: int,
    target_bounds: Callable[[int], float],
    source_bounds: Callable[[int], float],
    alpha: float = 1.1,
    stats: SearchStats | None = None,
    record=None,
) -> list[Path]:
    """Top-``k`` paths via the iteratively bounding search over ``SPT_P``.

    Parameters
    ----------
    target_bounds:
        Landmark Eq. (2) bound ``lb(v, V_T)`` — the fallback for
        nodes outside the tree.
    source_bounds:
        Landmark bound ``lb(s, v)`` — Alg. 6's backward-A* priority
        term.
    record:
        Optional per-query record; the Alg. 6 backward build (the
        query's one unconditional shortest-path computation *and* its
        partial-tree growth) becomes a ``comp_sp`` event (tree size as
        attribute) and the driver's events follow with
        ``bound_kind="spt_p"``.

    Returns paths in ``G_Q`` coordinates.
    """
    stats = stats if stats is not None else SearchStats()
    graph = query_graph.graph
    # Seeding the backward A* at the virtual target is equivalent to
    # seeding every destination at distance zero (the reverse adjacency
    # of t is exactly V_T with zero weights).
    stats.shortest_path_computations += 1
    events = None if record is None else record["events"]
    if events is not None:
        t0 = perf_counter()
    tree = build_partial_spt(
        graph,
        query_graph.source,
        (query_graph.target,),
        source_bounds,
        stats=stats,
    )
    if events is not None:
        events.append(("comp_sp", t0, perf_counter(), (len(tree),)))
    stats.spt_nodes = len(tree)
    if tree.source_path is None:
        return []
    first_length = tree.dist_to_targets[query_graph.source]
    heuristic = SPTPHeuristic(tree, target_bounds)
    return iter_bound_search(
        graph,
        query_graph.source,
        query_graph.target,
        k,
        heuristic,
        alpha=alpha,
        stats=stats,
        initial=(tree.source_path, first_length),
        record=record,
        bound_kind="spt_p",
    )
