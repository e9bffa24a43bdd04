"""The iteratively bounding driver (Section 5.1, Algs. 4–5).

``IterBound`` keeps the best-first queue of subspaces but replaces the
unconditional ``CompSP`` with ``TestLB``: a *bounded* A* that either
finds the subspace's shortest path (when its length is at most the
threshold ``τ``) or proves the lower bound ``τ`` and stops early.
``τ`` starts at the length of the 1st shortest path and is enlarged by
a factor ``α`` (default 1.1, the paper's choice from Fig. 6(b)) each
time a subspace is re-examined, so the tested bound approaches
``ω(P_k)`` geometrically while cheap tests prune most subspaces.

The driver is orientation-agnostic: the plain/``SPT_P`` variants run
it forward on ``G_Q`` (root = source, goal = virtual target) and the
``SPT_I`` variant runs it *backward* on the reversed ``G_Q``
(root = virtual target, goal = source), supplying its own ``CompLB``
(Alg. 8) and a pre-test hook that grows the incremental tree.  A
``τ``-cap equal to the total edge weight of the graph retires
subspaces that are provably empty (a dead-end prefix can otherwise
bounce forever — the paper implicitly assumes enough paths exist).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from time import perf_counter
from typing import Callable

from repro.core.flat_engine import dense_heuristic, make_test_lb
from repro.core.result import Path
from repro.core.stats import SearchStats
from repro.core.subspace import Subspace, compute_lower_bound, divide
from repro.graph.digraph import DiGraph
from repro.graph.virtual import QueryGraph
from repro.pathing.astar import astar_path

__all__ = ["iter_bound_search", "iter_bound"]

INF = float("inf")


def iter_bound_search(
    graph: DiGraph,
    root: int,
    goal: int,
    k: int,
    heuristic: Callable[[int], float],
    alpha: float = 1.1,
    stats: SearchStats | None = None,
    initial: tuple[tuple[int, ...], float] | None = None,
    comp_lb: Callable[[Subspace], float] | None = None,
    before_test: Callable[[float], None] | None = None,
    test_lb: Callable[[Subspace, float, dict], tuple[tuple[int, ...], float] | None]
    | None = None,
    comp_lb_children: Callable | None = None,
    initial_dists: list[float] | None = None,
    record=None,
    bound_kind: str | None = None,
) -> list[Path]:
    """Generic Alg. 4 driver; returns paths in ``graph`` coordinates.

    Parameters
    ----------
    graph, root, goal:
        The search graph and endpoints (already virtual-transformed;
        possibly reversed).
    heuristic:
        ``lb(v, goal)`` used by ``TestLB``'s priority/pruning and by
        the default ``CompLB``.
    alpha:
        Threshold growth factor (> 1).
    initial:
        The query's first shortest path ``(path, length)``, if a
        by-product of index construction already produced it (Algs. 6
        and 7 do); computed here otherwise.
    comp_lb:
        Override for the one-hop subspace bound (Alg. 8 for the
        ``SPT_I`` variant).  Defaults to Alg. 3 over ``graph``.
    before_test:
        Hook invoked with ``τ`` right before each ``TestLB`` — the
        ``SPT_I`` variant grows its tree here (Alg. 7's placement:
        after line 9, before line 10 of Alg. 4).
    test_lb:
        Override for the bounded test itself: called as
        ``test_lb(subspace, tau, info)`` and expected to honour the
        same contract as :func:`~repro.pathing.astar.bounded_astar_path`
        (``(tail, length)`` within ``tau`` or ``None`` with
        ``info["pruned"]`` set).  Defaults to
        :func:`~repro.core.flat_engine.make_test_lb` over ``graph`` and
        ``heuristic`` densified once; the ``SPT_I`` driver supplies one
        over its incremental tree here.
    comp_lb_children:
        Optional batched division: called as
        ``comp_lb_children(subspace, path, tail_dists)`` and expected
        to return the exact ``[(child, comp_lb(child)), ...]`` sequence
        that ``divide`` + ``comp_lb`` would produce, in the same order.
        Used only for paths whose ``TestLB`` reported tail distances
        (the flat ``SPT_I`` engine vectorises Alg. 8 here).
    initial_dists:
        Prefix weights of ``initial``'s path, entry ``i`` being the
        weight of ``path[: i + 1]`` accumulated left-to-right exactly
        as ``divide`` would.  Lets the first (largest) division skip
        the per-hop ``edge_weight`` walk.
    record:
        Optional per-query record (:func:`~repro.obs.tracing.new_record`).
        Each interval is timed once and appended as one event (fields
        per :data:`~repro.obs.tracing.EVENTS`): ``comp_sp`` when the
        initial shortest path is computed here, then per queue pop an
        ``spt_grow`` (time inside ``before_test``) and a ``test_lb``,
        or a ``division``, each carrying its pop, and last the
        ``iter_bound`` container with the subspace queue's peak size.
        Disabled cost is one ``None`` check per site.
    bound_kind:
        Which bound family backs ``heuristic``/``comp_lb``
        (``"landmark"``, ``"global"``, ``"spt_p"``, ``"spt_i"``) —
        recorded on the ``iter_bound`` event for pruning attribution.
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    stats = stats if stats is not None else SearchStats()
    adjacency = graph.adjacency
    if comp_lb is None:
        def comp_lb(subspace: Subspace) -> float:
            return compute_lower_bound(adjacency, subspace, heuristic)

    search_h = heuristic
    if test_lb is None:
        # Resolve the heuristic into its dense form once per query
        # instead of once per TestLB.
        search_h = dense_heuristic(heuristic, graph.n)
        test_lb = make_test_lb(graph, search_h, goal, stats)

    append = None if record is None else record["events"].append
    if append is not None:
        t_begin = perf_counter()
    if initial is None:
        stats.shortest_path_computations += 1
        if append is not None:
            t0 = perf_counter()
        initial = astar_path(graph, root, goal, search_h, stats=stats)
        if append is not None:
            append(("comp_sp", t0, perf_counter(), None))
    if initial is None:
        if append is not None:
            append(("iter_bound", t_begin, perf_counter(), (bound_kind, 0, 0)))
        return []
    first_path, first_length = initial

    # No simple path can be longer than n * max edge weight; testing a
    # subspace at this bound without success proves it empty.
    tau_limit = graph.n * graph.max_edge_weight + 1.0

    tie = count()  # FIFO tie-break among equal bounds, exactly as before
    # Queue entries carry (bound, tie, subspace, found) where found is
    # None (bound-only entry) or (path, tail_dists) — the flat TestLB
    # kernel reports the settled distances of its tail so divide() can
    # reuse them instead of re-reading edge weights.
    queue: list[
        tuple[float, int, Subspace, tuple[tuple[int, ...], list[float] | None] | None]
    ] = []
    heappush(
        queue,
        (first_length, next(tie), Subspace.entire(root), (first_path, initial_dists)),
    )

    results: list[Path] = []
    edge_weight = graph.edge_weight
    test_info: dict = {}
    # Hot-loop stats are batched in locals and flushed once at the end.
    n_created = 1
    n_lb_computations = 0
    n_pruned = 0
    n_tests = 0
    n_test_failures = 0
    # Verdict tallies — one per tested subspace.
    n_test_hits = 0
    n_test_misses = 0
    n_test_retires = 0
    queue_peak = 1
    try:
        while queue and len(results) < k:
            if append is not None and len(queue) > queue_peak:
                queue_peak = len(queue)
            bound, _, subspace, found = heappop(queue)
            if found is not None:
                path, dists = found
                results.append(Path(length=bound, nodes=path))
                if append is not None:
                    t0 = perf_counter()
                if comp_lb_children is not None and dists is not None:
                    pairs = comp_lb_children(subspace, path, dists)
                else:
                    pairs = [
                        (child, comp_lb(child))
                        for child in divide(subspace, path, bound, edge_weight, dists)
                    ]
                born_pruned = 0
                for child, child_bound in pairs:
                    n_created += 1
                    n_lb_computations += 1
                    if child_bound == INF:
                        born_pruned += 1
                        continue
                    if child_bound < bound:
                        child_bound = bound
                    heappush(queue, (child_bound, next(tie), child, None))
                n_pruned += born_pruned
                if append is not None:
                    prefix = subspace.prefix
                    append((
                        "division", t0, perf_counter(),
                        (len(prefix) - 1, len(pairs), born_pruned, prefix, bound),
                    ))
                continue
            # Enlarge tau: alpha * max(lb(S), next pending bound) — Alg. 4
            # line 9, with the queue top defined as +inf when empty.
            next_bound = queue[0][0] if queue else INF
            tau = alpha * max(bound, next_bound, first_length)
            if tau <= 0.0:
                # All pending bounds are zero (possible only when the source
                # is itself a destination and Alg. 8 floored a bound at 0);
                # any positive value restores geometric growth.
                tau = graph.max_edge_weight or 1.0
            if tau >= tau_limit:
                tau = tau_limit
            if before_test is not None:
                if append is not None:
                    t0 = perf_counter()
                before_test(tau)
                if append is not None:
                    append(("spt_grow", t0, perf_counter(), tau))
            n_tests += 1
            if append is not None:
                t0 = perf_counter()
            hit = test_lb(subspace, tau, test_info)
            if append is not None:
                t1 = perf_counter()
            if hit is not None:
                n_test_hits += 1
                verdict = "hit"
                tail, length = hit
                heappush(
                    queue,
                    (
                        length,
                        next(tie),
                        subspace,
                        (subspace.prefix[:-1] + tail, test_info.get("tail_dists")),
                    ),
                )
            else:
                length = None
                n_test_failures += 1
                if not test_info["pruned"] or tau >= tau_limit:
                    n_test_retires += 1
                    n_pruned += 1  # provably empty — retire it
                    verdict = "retire"
                else:
                    n_test_misses += 1
                    verdict = "miss"
                    heappush(queue, (tau, next(tie), subspace, None))
            if append is not None:
                prefix = subspace.prefix
                append((
                    "test_lb", t0, t1,
                    (len(prefix) - 1, bound, tau, verdict, prefix, length),
                ))
    finally:
        stats.subspaces_created += n_created
        stats.lower_bound_computations += n_lb_computations
        stats.subspaces_pruned += n_pruned
        stats.lb_tests += n_tests
        stats.lb_test_failures += n_test_failures
        stats.lb_test_hits += n_test_hits
        stats.lb_test_misses += n_test_misses
        stats.lb_test_retires += n_test_retires
    leftover = sum(1 for entry in queue if entry[3] is None)
    stats.subspaces_pruned += leftover
    if append is not None:
        append((
            "iter_bound", t_begin, perf_counter(),
            (bound_kind, leftover, len(results), queue_peak),
        ))
    return results


def iter_bound(
    query_graph: QueryGraph,
    k: int,
    heuristic: Callable[[int], float],
    alpha: float = 1.1,
    stats: SearchStats | None = None,
    record=None,
) -> list[Path]:
    """The plain (index-free) ``IterBound`` on a query transform.

    Forward orientation: root = source, goal = virtual target; the
    landmark bound doubles as ``TestLB``'s heuristic.
    """
    from repro.landmarks.index import ZeroBounds

    return iter_bound_search(
        query_graph.graph,
        query_graph.source,
        query_graph.target,
        k,
        heuristic,
        alpha=alpha,
        stats=stats,
        record=record,
        bound_kind="global" if isinstance(heuristic, ZeroBounds) else "landmark",
    )
