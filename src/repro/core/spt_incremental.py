"""``IterBound-SPT_I`` (Section 5.3, Algs. 7–8) — the paper's best method.

``SPT_P`` starts from *all* destinations, which is wasteful when the
category is large.  The incremental tree ``SPT_I`` instead grows
*forward* from the source: the first phase is the query's initial
shortest-path computation (an A* from ``s`` prioritised by
``ds(w) + lb(w, V_T)``), whose live priority queue is kept around;
each time the iteratively bounding driver is about to test a subspace
at threshold ``τ``, the tree is enlarged by popping every queue entry
with key ≤ ``τ`` (Alg. 7).  Prop. 5.2 then guarantees the tree
contains *every* node of *every* source-to-destination path of length
≤ ``τ``, which licenses two accelerations:

* lower-bound testing (``TestLB-SPT_I``) prunes all nodes outside the
  tree and reads ``lb(s, w)`` as the exact tree distance ``ds(w)``;
* the one-hop bound (``CompLB-SPT_I``, Alg. 8) restricts the virtual
  target's in-neighbours to ``D`` — the destinations settled so far —
  instead of the whole of ``V_T``.

The subspace search runs in *reverse* orientation (root = virtual
target, goal = source, on the reversed ``G_Q``): prefixes are the
paper's ``P_{t,u}`` suffixes, and the remaining-distance heuristic of
a reverse search is precisely "distance from ``s``", which is what
the tree knows exactly.  The tree and the Alg. 8 bounds are the flat
engine's (:mod:`repro.core.flat_engine`); each query picks the tree
once, the compiled one wherever the tier loaded and can read the
bounds.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

from repro import native
from repro.core.flat_engine import (
    CompiledIncrementalSPT,
    FlatIncrementalSPT,
    make_comp_lb,
    make_comp_lb_children,
    make_test_lb,
)
from repro.core.iter_bound import iter_bound_search
from repro.core.result import Path
from repro.core.stats import SearchStats
from repro.graph.virtual import QueryGraph
from repro.landmarks.index import TargetBounds, ZeroBounds

__all__ = ["iter_bound_spti"]


def iter_bound_spti(
    query_graph: QueryGraph,
    k: int,
    target_bounds: Callable[[int], float],
    source_bounds: Callable[[int], float],
    alpha: float = 1.1,
    stats: SearchStats | None = None,
    record=None,
) -> list[Path]:
    """Top-``k`` paths via the incremental-SPT iteratively bounding search.

    Parameters
    ----------
    target_bounds:
        ``lb(w, V_T)`` — Alg. 7's queue key term.  Pass
        :data:`~repro.landmarks.index.ZERO_BOUNDS` for the paper's
        no-landmark (``IterBound_I``-NL) variant, which turns the tree
        growth into plain Dijkstra but leaves everything else intact
        (Section 6).  With the compiled tier
        (:data:`repro.native.HAVE_NATIVE`, read per call) these two
        kinds of bounds grow a :class:`CompiledIncrementalSPT`; any
        other callable, or no tier, a :class:`FlatIncrementalSPT`.
    source_bounds:
        ``lb(s, v)`` — Alg. 8's fallback for nodes outside the tree.
    record:
        Optional per-query record; the driver's
        ``spt_grow``/``test_lb``/``division`` events carry
        ``bound_kind="spt_i"`` (pruning is by exact tree distances;
        Prop. 5.2), and the initial tree build becomes a ``comp_sp``
        event appended last, once the tree has stopped growing, with
        the tree's final size and queue peak.

    Returns paths in ``G_Q`` coordinates (source → … → virtual target).
    """
    stats = stats if stats is not None else SearchStats()
    gq = query_graph.graph
    compiled = native.HAVE_NATIVE and isinstance(
        target_bounds, (TargetBounds, ZeroBounds)
    )
    tree = (CompiledIncrementalSPT if compiled else FlatIncrementalSPT)(
        query_graph, target_bounds, stats=stats
    )
    reversed_graph = query_graph.reversed_graph()
    events = None if record is None else record["events"]
    built = None
    try:
        stats.shortest_path_computations += 1
        if events is not None:
            t0 = perf_counter()
        initial = tree.build_initial(query_graph.target)
        if events is not None:
            built = perf_counter()
        if initial is None:
            return []
        first_path, first_length = initial
        in_adjacency = reversed_graph.adjacency  # in-edges of G_Q
        # Prefix weights of the reversed first path, accumulated hop by
        # hop exactly as the driver's divide() would (reverse edge
        # a->b = forward edge b->a), so the first division reuses them
        # bit-for-bit.
        rev_first = tuple(reversed(first_path))
        acc = 0.0
        init_dists = [0.0]
        for a, b in zip(rev_first, rev_first[1:]):
            acc = acc + gq.edge_weight(b, a)
            init_dists.append(acc)
        comp_lb = make_comp_lb(
            tree,
            in_adjacency,
            query_graph.target,
            len(query_graph.destinations),
            source_bounds,
        )
        reverse_paths = iter_bound_search(
            reversed_graph,
            query_graph.target,
            query_graph.source,
            k,
            tree.heuristic,
            alpha=alpha,
            stats=stats,
            initial=(rev_first, first_length),
            comp_lb=comp_lb,
            before_test=tree.grow,
            test_lb=make_test_lb(reversed_graph, tree.h, query_graph.source, stats),
            comp_lb_children=make_comp_lb_children(
                tree, in_adjacency, comp_lb, source_bounds
            ),
            initial_dists=init_dists,
            record=record,
            bound_kind="spt_i",
        )
        stats.spt_nodes = len(tree)
        return [
            Path(length=p.length, nodes=tuple(reversed(p.nodes)))
            for p in reverse_paths
        ]
    finally:
        if built is not None:
            # Export nests events by interval, so the build's event can
            # wait until the tree is done growing.
            events.append(("comp_sp", t0, built, (len(tree), tree.queue_peak)))
        tree.close()
