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
the tree knows exactly.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.core.flat_engine import flat_spti_search
from repro.core.iter_bound import iter_bound_search
from repro.core.result import Path
from repro.core.stats import SearchStats
from repro.core.subspace import Subspace
from repro.graph.virtual import QueryGraph
from repro.pathing.kernels import active_kernel

__all__ = ["IncrementalSPT", "iter_bound_spti"]

INF = float("inf")


class IncrementalSPT:
    """Alg. 7: a forward shortest-path tree grown on demand.

    The queue (the paper's ``Q_T``) persists across enlargements; a
    node's distance from the source is exact once it is settled.
    """

    __slots__ = (
        "_adjacency",
        "_source",
        "_target_bounds",
        "_destinations",
        "settled",
        "parent",
        "settled_destinations",
        "_dist",
        "_heap",
        "_stats",
    )

    def __init__(
        self,
        query_graph: QueryGraph,
        target_bounds: Callable[[int], float],
        stats: SearchStats | None = None,
    ) -> None:
        self._adjacency = query_graph.graph.adjacency
        self._source = query_graph.source
        self._target_bounds = target_bounds
        self._destinations = frozenset(query_graph.destinations)
        #: exact distance from the source for every settled node.
        self.settled: dict[int, float] = {}
        self.parent: dict[int, int] = {}
        #: the paper's ``D`` — destination nodes already in the tree.
        self.settled_destinations: set[int] = set()
        self._dist: dict[int, float] = {self._source: 0.0}
        self._heap: list[tuple[float, int]] = [
            (target_bounds(self._source), self._source)
        ]
        self._stats = stats
        if stats is not None:
            stats.heap_pushes += 1

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _settle_next(self) -> int | None:
        """Pop and settle one node; returns it (or None if exhausted)."""
        heap = self._heap
        settled = self.settled
        while heap:
            _, u = heappop(heap)
            if self._stats is not None:
                self._stats.heap_pops += 1
            if u in settled:
                continue
            du = self._dist[u]
            settled[u] = du
            if u in self._destinations:
                self.settled_destinations.add(u)
            if self._stats is not None:
                self._stats.nodes_settled += 1
            bounds = self._target_bounds
            dist = self._dist
            for v, w in self._adjacency[u]:
                if v in settled:
                    continue
                nd = du + w
                if nd < dist.get(v, INF):
                    dist[v] = nd
                    self.parent[v] = u
                    heappush(heap, (nd + bounds(v), v))
                    if self._stats is not None:
                        self._stats.edges_relaxed += 1
                        self._stats.heap_pushes += 1
            return u
        return None

    def build_initial(self, target: int) -> tuple[tuple[int, ...], float] | None:
        """Phase one: settle until ``target`` is reached.

        Returns the first shortest path (source → … → target) and its
        length, or ``None`` if the target is unreachable.  This is the
        by-product construction invoked at line 1 of Alg. 4.
        """
        while True:
            u = self._settle_next()
            if u is None:
                return None
            if u == target:
                path = [u]
                node = u
                while node != self._source:
                    node = self.parent[node]
                    path.append(node)
                path.reverse()
                return tuple(path), self.settled[u]

    def grow(self, tau: float) -> None:
        """Phase two (Alg. 7): settle every node with key ≤ ``tau``."""
        heap = self._heap
        while heap:
            key, u = heap[0]
            if key > tau:
                return
            if u in self.settled:
                heappop(heap)
                if self._stats is not None:
                    self._stats.heap_pops += 1
                continue
            self._settle_next()

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def __contains__(self, v: int) -> bool:
        return v in self.settled

    def __len__(self) -> int:
        return len(self.settled)

    def distance(self, v: int) -> float | None:
        """Exact ``ds(v)`` if settled, else ``None``."""
        return self.settled.get(v)


class _SPTIHeuristic:
    """Remaining-distance bound for the reverse search.

    Settled nodes answer with the exact ``ds``; everything else is
    ``inf``, which the bounded A* treats as "prune" — implementing the
    paper's "prune all nodes that are not in SPT_I".  (Prop. 5.2 makes
    this safe: after ``grow(τ)`` every node of every ≤ τ path is
    settled.)
    """

    __slots__ = ("_settled",)

    def __init__(self, tree: IncrementalSPT) -> None:
        self._settled = tree.settled

    def __call__(self, v: int) -> float:
        return self._settled.get(v, INF)


def iter_bound_spti(
    query_graph: QueryGraph,
    k: int,
    target_bounds: Callable[[int], float],
    source_bounds: Callable[[int], float],
    alpha: float = 1.1,
    stats: SearchStats | None = None,
    flat_core: bool | None = None,
    trace=None,
    metrics=None,
    tracer=None,
) -> list[Path]:
    """Top-``k`` paths via the incremental-SPT iteratively bounding search.

    Parameters
    ----------
    target_bounds:
        ``lb(w, V_T)`` — Alg. 7's queue key term.  Pass
        :data:`~repro.landmarks.index.ZERO_BOUNDS` for the paper's
        no-landmark (``IterBound_I``-NL) variant, which turns the tree
        growth into plain Dijkstra but leaves everything else intact
        (Section 6).
    source_bounds:
        ``lb(s, v)`` — Alg. 8's fallback for nodes outside the tree.
    flat_core:
        Tri-state engine switch.  ``None`` (default) follows the
        ambient kernel: under ``"flat"`` the whole query runs on
        :func:`~repro.core.flat_engine.flat_spti_search`.  ``False``
        forces the dict tree/driver with per-call kernel dispatch in
        the leaves — the pre-flat-core configuration, kept addressable
        so benchmarks can measure the engine against it.  ``True``
        forces the flat engine regardless of the ambient kernel.
    trace:
        Optional :class:`~repro.core.trace.SearchTrace`; both engines
        record the identical ``output``/``test-hit``/``test-miss``/
        ``retire`` event sequence (the flat-vs-dict trace-equivalence
        test asserts it), so ``kpj explain`` narrates either kernel.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        phase attribution: ``comp_sp`` for the initial tree build,
        then the driver's ``spt_grow``/``test_lb``/``division``.
    tracer:
        Optional :class:`~repro.obs.tracing.SpanTracer`; the initial
        tree build becomes a ``comp_sp`` span and the driver records
        its span taxonomy with ``bound_kind="spt_i"`` (pruning is by
        exact tree distances; Prop. 5.2).

    Returns paths in ``G_Q`` coordinates (source → … → virtual target).
    """
    if flat_core is None:
        flat_core = active_kernel() != "dict"
    if flat_core:
        return flat_spti_search(
            query_graph, k, target_bounds, source_bounds, alpha=alpha, stats=stats,
            trace=trace, metrics=metrics, tracer=tracer,
        )
    stats = stats if stats is not None else SearchStats()
    tree = IncrementalSPT(query_graph, target_bounds, stats=stats)
    stats.shortest_path_computations += 1
    if metrics is not None or tracer is not None:
        from time import perf_counter

        t0 = perf_counter()
        initial = tree.build_initial(query_graph.target)
        t1 = perf_counter()
        if metrics is not None:
            metrics.observe_phase("comp_sp", t1 - t0)
        if tracer is not None:
            tracer.add("comp_sp", t0, t1, cat="phase")
    else:
        initial = tree.build_initial(query_graph.target)
    if initial is None:
        return []
    first_path, first_length = initial

    reversed_graph = query_graph.reversed_graph()
    in_adjacency = reversed_graph.adjacency  # in-edges of G_Q
    target = query_graph.target
    destinations = frozenset(query_graph.destinations)
    settled = tree.settled
    heuristic = _SPTIHeuristic(tree)

    def comp_lb(subspace: Subspace) -> float:
        """Alg. 8 (CompLB-SPT_I), in reverse-orientation terms."""
        u = subspace.head
        prefix = subspace.prefix
        banned = subspace.banned
        base = subspace.prefix_weight
        best = INF
        if u == target:
            for v in tree.settled_destinations:
                if v in banned or v in prefix:
                    continue
                estimate = base + settled[v]
                if estimate < best:
                    best = estimate
            if best == INF and len(tree.settled_destinations) < len(destinations):
                # Unsettled destinations may still open this subspace
                # later; 0 keeps it alive (Alg. 8 line 8).
                return 0.0
            return best
        for v, w in in_adjacency[u]:
            if v in banned or v in prefix:
                continue
            ds = settled.get(v)
            if ds is None:
                ds = source_bounds(v)
            estimate = base + w + ds
            if estimate < best:
                best = estimate
        return best

    reverse_paths = iter_bound_search(
        reversed_graph,
        target,
        query_graph.source,
        k,
        heuristic,
        alpha=alpha,
        stats=stats,
        initial=(tuple(reversed(first_path)), first_length),
        comp_lb=comp_lb,
        before_test=tree.grow,
        use_flat_engine=False,
        trace=trace,
        metrics=metrics,
        tracer=tracer,
        bound_kind="spt_i",
    )
    stats.spt_nodes = len(tree)
    return [
        Path(length=p.length, nodes=tuple(reversed(p.nodes))) for p in reverse_paths
    ]
