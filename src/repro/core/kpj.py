"""Unified KPJ/KSP solver facade and the algorithm registry.

:class:`KPJSolver` is the public entry point of the library: construct
it once per graph (landmark selection and the per-landmark Dijkstra
runs happen here — the offline ``O(|L| (m + n log n))`` step of the
paper), then issue any number of queries.  Each query builds the
``G_Q`` overlay, derives the per-query landmark bound vectors, runs
the selected algorithm, and strips virtual nodes from the results.

Two serving-oriented layers sit on top of the per-query path:

* a bounded **prepared-category cache** — the destination-set
  artefacts that do not depend on the query source (the ``G_Q``
  overlay, its CSR export, the Eq. (2) target-bound vector, and the
  backward SPT seed) are memoised per ``(destination set,
  landmark configuration)`` and reused across queries, with hit/miss
  counters surfaced in :class:`~repro.core.stats.SearchStats`;
* a **batch API** — :meth:`KPJSolver.solve_batch` answers a list of
  queries, optionally sharded across a process pool
  (:mod:`repro.server.pool`), returning results in submission order.

The ``kernel`` knob selects the search substrate for every algorithm:
``"dict"`` (pure-CPython dicts and tuple adjacency, the default) or
``"flat"`` (CSR flat-array kernels, scipy-accelerated where
available); see :mod:`repro.pathing.kernels`.

Algorithm registry names (paper names in parentheses):

========================  =======================================
``da``                    DA (Alg. 1, deviation baseline)
``da-spt``                DA-SPT (full-SPT deviation, Gao et al.)
``best-first``            BestFirst (Alg. 2)
``iter-bound``            IterBound (Alg. 4)
``iter-bound-sptp``       IterBound-SPT_P (Section 5.2)
``iter-bound-spti``       IterBound-SPT_I (Section 5.3, default)
``iter-bound-spti-nl``    IterBound-SPT_I without landmarks (§6)
========================  =======================================
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

from repro.baselines.deviation import deviation_algorithm
from repro.baselines.deviation_spt import deviation_spt
from repro.core.best_first import best_first
from repro.core.iter_bound import iter_bound
from repro.core.result import Path, QueryResult
from repro.core.spt_incremental import iter_bound_spti
from repro.core.spt_partial import iter_bound_sptp
from repro.core.stats import SearchStats
from repro.exceptions import QueryError
from repro.graph.categories import CategoryIndex
from repro.graph.digraph import DiGraph
from repro.graph.virtual import QueryGraph, build_query_graph
from repro.landmarks.index import ZERO_BOUNDS, LandmarkIndex, TargetBounds
from repro.obs.log import QueryLogger, current_query_id, new_query_id
from repro.obs.memory import MemoryTelemetry, graph_pool_bytes
from repro.obs.metrics import SEARCH_PHASES, MetricsRegistry, maybe_phase
from repro.obs.tracing import SpanTracer, maybe_span
from repro.pathing.kernels import KERNELS, use_kernel

__all__ = [
    "KPJSolver",
    "PreparedCategory",
    "QueryContext",
    "ALGORITHMS",
    "DEFAULT_ALGORITHM",
]

DEFAULT_ALGORITHM = "iter-bound-spti"


@dataclass
class QueryContext:
    """Per-query inputs shared by every algorithm implementation.

    ``target_bounds``/``source_bounds`` are the Eq. (2)-style landmark
    bound vectors (or the zero bound); ``alpha`` is the iteratively
    bounding growth factor; ``stats`` collects instrumentation;
    ``metrics`` is the per-query registry and ``tracer`` the per-query
    span tracer (``None`` when observability is off — implementations
    must guard on that, never allocate).
    """

    target_bounds: Callable[[int], float]
    source_bounds: Callable[[int], float]
    alpha: float
    stats: SearchStats
    metrics: MetricsRegistry | None = None
    tracer: SpanTracer | None = None


def _run_da(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return deviation_algorithm(qg, k, stats=ctx.stats)


def _run_da_spt(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return deviation_spt(qg, k, stats=ctx.stats)


def _run_best_first(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return best_first(qg, k, ctx.target_bounds, stats=ctx.stats)


def _run_iter_bound(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return iter_bound(
        qg, k, ctx.target_bounds, alpha=ctx.alpha, stats=ctx.stats,
        metrics=ctx.metrics, tracer=ctx.tracer,
    )


def _run_iter_bound_sptp(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    source_bounds = ctx.source_bounds
    eager = getattr(source_bounds, "eager", None)
    if eager is not None:
        # The backward A* reads the bound once per relaxed node — a
        # dense region — so the materialised vector beats the lazy
        # per-column reduction here.
        source_bounds = eager()
    return iter_bound_sptp(
        qg, k, ctx.target_bounds, source_bounds, alpha=ctx.alpha, stats=ctx.stats,
        metrics=ctx.metrics, tracer=ctx.tracer,
    )


def _run_iter_bound_spti(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return iter_bound_spti(
        qg, k, ctx.target_bounds, ctx.source_bounds, alpha=ctx.alpha, stats=ctx.stats,
        metrics=ctx.metrics, tracer=ctx.tracer,
    )


def _run_iter_bound_spti_nl(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return iter_bound_spti(
        qg, k, ZERO_BOUNDS, ZERO_BOUNDS, alpha=ctx.alpha, stats=ctx.stats,
        metrics=ctx.metrics, tracer=ctx.tracer,
    )


ALGORITHMS: dict[str, Callable[[QueryGraph, int, QueryContext], list[Path]]] = {
    "da": _run_da,
    "da-spt": _run_da_spt,
    "best-first": _run_best_first,
    "iter-bound": _run_iter_bound,
    "iter-bound-sptp": _run_iter_bound_sptp,
    "iter-bound-spti": _run_iter_bound_spti,
    "iter-bound-spti-nl": _run_iter_bound_spti_nl,
}


class KPJSolver:
    """Answers KPJ, KSP, and GKPJ queries over one graph.

    Parameters
    ----------
    graph:
        The frozen input graph ``G``.
    categories:
        POI inverted index; required for category queries, optional if
        every query passes explicit destination nodes.
    landmarks:
        ``int`` — build a landmark index of that size here (the
        paper's default is 16); an existing :class:`LandmarkIndex` —
        use it; ``None`` — run without landmarks (all Eq. (2) bounds
        become 0).
    landmark_strategy, seed:
        Forwarded to :meth:`LandmarkIndex.build` when ``landmarks``
        is an ``int``.
    kernel:
        Search substrate every query runs on: ``"dict"`` (default) or
        ``"flat"`` (CSR flat-array kernels).  Results are identical;
        only the speed profile changes.
    prepared_cache_size:
        Number of prepared destination sets kept in the LRU
        cross-query cache (``0`` disables caching).  Each entry holds
        the Eq. (2) bound vector (``O(n)`` floats) and, lazily, the
        ``G_Q`` overlay and its CSR export.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When
        set, every query records phase wall times, counters, and
        gauges into it (each query runs against a fresh per-query
        registry whose snapshot rides back on
        ``QueryResult.metrics``, then merges here).  When ``None``
        (default) the entire layer stays off — one ``is None`` check
        per site, no allocation.
    tracer:
        Optional :class:`~repro.obs.tracing.SpanTracer`.  When set,
        sampled queries (the tracer's ``sample_every`` stride) record
        a span tree — ``query`` → ``prepare``/``search`` →
        ``iter_bound`` → per-iteration ``iterate`` with ``test_lb`` /
        ``division`` / ``spt_grow`` leaves — into a fresh per-query
        tracer whose snapshot rides back on ``QueryResult.trace`` and
        is absorbed here.  Same discipline as ``metrics``: ``None``
        keeps every hot site at a single ``is None`` check.
    query_log:
        Optional :class:`~repro.obs.log.QueryLogger`.  When set, every
        query emits one JSON event (query id, algorithm/kernel,
        latency, non-zero work counters), and queries over the
        logger's ``slow_ms`` threshold additionally dump their full
        trace + metrics snapshots to a file — see DESIGN.md §3g.
    memory:
        Optional :class:`~repro.obs.memory.MemoryTelemetry`.  When set
        (and started), the ``prepare`` and ``search`` phases record
        tracemalloc attribution into the per-query registry, and each
        query stamps the process/pool byte gauges
        (``process_peak_rss_bytes``, ``flat_scratch_pool_bytes``).
        Requires ``metrics`` to be
        set for the numbers to land anywhere.

    Example
    -------
    >>> solver = KPJSolver(graph, categories, landmarks=16)
    >>> result = solver.top_k(source=5, category="Hotel", k=3)
    >>> [p.length for p in result.paths]        # doctest: +SKIP
    [5.0, 6.0, 7.0]
    """

    def __init__(
        self,
        graph: DiGraph,
        categories: CategoryIndex | None = None,
        landmarks: LandmarkIndex | int | None = 16,
        landmark_strategy: str = "farthest",
        seed: int = 0,
        kernel: str = "dict",
        prepared_cache_size: int = 32,
        metrics: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
        query_log: QueryLogger | None = None,
        memory: MemoryTelemetry | None = None,
    ) -> None:
        if not graph.frozen:
            graph.freeze()
        if kernel not in KERNELS:
            raise QueryError(
                f"unknown kernel {kernel!r}; choose one of: {', '.join(KERNELS)}"
            )
        if prepared_cache_size < 0:
            raise QueryError(
                f"prepared_cache_size must be >= 0, got {prepared_cache_size}"
            )
        self.graph = graph
        self.categories = categories
        self.kernel = kernel
        self.prepared_cache_size = prepared_cache_size
        self.metrics = metrics
        self.tracer = tracer
        self.query_log = query_log
        self.memory = memory
        self._prepared_cache: OrderedDict[tuple, PreparedCategory] = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        if isinstance(landmarks, int):
            self.landmark_index: LandmarkIndex | None = LandmarkIndex.build(
                graph, landmarks, strategy=landmark_strategy, seed=seed, kernel=kernel,
                metrics=metrics,
            )
        else:
            self.landmark_index = landmarks

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def top_k(
        self,
        source: int,
        category: str | None = None,
        destinations: Sequence[int] | None = None,
        k: int = 10,
        algorithm: str = DEFAULT_ALGORITHM,
        alpha: float = 1.1,
    ) -> QueryResult:
        """KPJ query ``{s, T, k}``: top-``k`` simple paths from
        ``source`` to a category (or an explicit destination set).
        """
        return self._solve((source,), category, destinations, k, algorithm, alpha)

    def ksp(
        self,
        source: int,
        target: int,
        k: int = 10,
        algorithm: str = DEFAULT_ALGORITHM,
        alpha: float = 1.1,
    ) -> QueryResult:
        """KSP query: the degenerate KPJ with a single destination."""
        return self._solve((source,), None, (target,), k, algorithm, alpha)

    def join(
        self,
        source_category: str | None = None,
        category: str | None = None,
        sources: Sequence[int] | None = None,
        destinations: Sequence[int] | None = None,
        k: int = 10,
        algorithm: str = DEFAULT_ALGORITHM,
        alpha: float = 1.1,
    ) -> QueryResult:
        """GKPJ query ``{S, T, k}``: both endpoints are node sets.

        Endpoint sets are given either as category names or as
        explicit node sequences (Section 6's virtual-source reduction
        is applied automatically).
        """
        source_nodes = self._resolve(source_category, sources, "source")
        return self._solve(source_nodes, category, destinations, k, algorithm, alpha)

    def solve_batch(
        self,
        queries: Sequence,
        workers: int = 1,
        stats: SearchStats | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
        engine: str = "pool",
    ) -> list[QueryResult]:
        """Answer a list of queries, optionally across a process pool.

        Each query is a :class:`~repro.server.pool.BatchQuery` or a
        mapping with the same fields (``source`` required;
        ``category``/``destinations``, ``k``, ``algorithm``, ``alpha``
        optional).  With ``workers > 1`` the list is sharded across a
        ``multiprocessing`` pool — the graph, landmark index, and
        warmed prepared-category cache are shipped once per worker via
        fork — and results stream back **in submission order**,
        identical to what sequential solving returns.  See
        :mod:`repro.server.pool` for the sharding details and the
        platforms where the pool falls back to sequential execution.

        Pass a :class:`~repro.core.stats.SearchStats` as ``stats`` to
        collect the batch's aggregate counters: the merge of every
        result's per-query stats (across all workers) plus the
        parent-side prepared-cache warm-up that precedes a fork.

        Pass a :class:`~repro.obs.metrics.MetricsRegistry` as
        ``metrics`` to likewise collect the batch's aggregate phase
        timers/counters/gauges — per-query snapshots cross the fork
        boundary on each result and are merged on return, with the
        parent-side warm-up attributed to the ``warmup`` phase.

        Pass a :class:`~repro.obs.tracing.SpanTracer` as ``tracer`` to
        collect one batch-wide span tree: the whole call becomes a
        ``batch`` span, and each sampled query's span snapshot (local
        or shipped back from a worker process, keeping the worker's
        pid) is re-rooted under it.

        ``engine="service"`` routes the batch through the
        resident-worker tier (:mod:`repro.server.service`) instead of
        the fork-per-batch pool: workers are spawned once over
        shared-memory CSR state and answer with a warm prepared cache.
        """
        from repro.server.pool import run_batch

        return run_batch(
            self, queries, workers=workers, stats=stats, metrics=metrics,
            tracer=tracer, engine=engine,
        )

    def prepare(
        self,
        category: str | None = None,
        destinations: Sequence[int] | None = None,
    ) -> "PreparedCategory":
        """Pre-resolve a destination set for a batch of queries.

        The returned handle shares the solver's prepared-category
        cache: the Eq. (2) target-bound vector, the ``G_Q`` overlay
        (and its CSR export under the flat kernel), and the backward
        SPT seed are computed once per ``(destination set, landmark
        configuration)`` and reused by every ``top_k`` / ``join``
        issued against the handle *or* directly against the solver —
        the paper's "computed once for each query" step, hoisted
        across the workload.
        """
        with maybe_phase(self.metrics, "prepare"):
            dest = self._resolve(category, destinations, "destination")
            return self._prepared(
                self._canonical_destinations(dest), None, self.metrics
            )

    def cache_info(self) -> dict[str, int]:
        """Prepared-category cache occupancy, bound, and lifetime counters."""
        return {
            "entries": len(self._prepared_cache),
            "size_bound": self.prepared_cache_size,
            "hits": self._cache_hits,
            "misses": self._cache_misses,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve(
        self,
        category: str | None,
        nodes: Sequence[int] | None,
        role: str,
    ) -> tuple[int, ...]:
        if nodes is not None:
            if category is not None:
                raise QueryError(f"give either a {role} category or nodes, not both")
            return tuple(nodes)
        if category is None:
            raise QueryError(f"query needs a {role} category or explicit nodes")
        if self.categories is None:
            raise QueryError(
                "solver was built without a CategoryIndex; pass explicit nodes"
            )
        return self.categories.nodes_of(category)

    def _canonical_destinations(self, destinations: Sequence[int]) -> tuple[int, ...]:
        """Deduplicated, sorted, range-checked destination tuple."""
        if not destinations:
            raise QueryError("query needs at least one destination node")
        n = self.graph.n
        for node in destinations:
            if not 0 <= node < n:
                raise QueryError(f"query node {node} out of range [0, {n})")
        return tuple(sorted(set(destinations)))

    def _prepared(
        self,
        dest: tuple[int, ...],
        stats: SearchStats | None,
        metrics: MetricsRegistry | None = None,
    ) -> "PreparedCategory":
        """Fetch or build the prepared artefacts for ``dest`` (LRU).

        The cache key is the canonical destination tuple plus the
        landmark configuration — a different landmark set implies
        different bound vectors, so the two must never alias.  Hit and
        miss counters are recorded on ``stats`` when given; occupancy
        gauges on ``metrics`` when given.
        """
        lm = self.landmark_index
        key = (dest, lm.landmarks if lm is not None else None)
        cache = self._prepared_cache
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            self._cache_hits += 1
            if stats is not None:
                stats.prepared_cache_hits += 1
            if metrics is not None:
                metrics.inc("prepared_cache_hits")
            return hit
        self._cache_misses += 1
        if stats is not None:
            stats.prepared_cache_misses += 1
        bounds = lm.to_target_bounds(dest) if lm is not None else ZERO_BOUNDS
        prepared = PreparedCategory(self, dest, bounds)
        if self.prepared_cache_size > 0:
            cache[key] = prepared
            while len(cache) > self.prepared_cache_size:
                cache.popitem(last=False)
        if metrics is not None:
            metrics.inc("prepared_cache_misses")
            metrics.set_gauge("prepared_cache_entries", len(cache))
            # Dominant cost per entry: the Eq. (2) bound vector, one
            # float per node (the overlay/CSR are lazy and shared).
            metrics.set_gauge("prepared_cache_bytes", len(cache) * self.graph.n * 8)
        return prepared

    def _solve(
        self,
        sources: tuple[int, ...],
        category: str | None,
        destinations: Sequence[int] | None,
        k: int,
        algorithm: str,
        alpha: float,
        prepared: "PreparedCategory | None" = None,
        target_bounds: Callable[[int], float] | None = None,
    ) -> QueryResult:
        t_start = perf_counter()
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        try:
            run = ALGORITHMS[algorithm]
        except KeyError:
            known = ", ".join(sorted(ALGORITHMS))
            raise QueryError(
                f"unknown algorithm {algorithm!r}; choose one of: {known}"
            ) from None
        stats = SearchStats()
        # Stable query id: stamped on the result, the root span, and
        # every log event; readable below the solver via the
        # current_query_id contextvar (fork-safe — see repro.obs.log).
        query_id = new_query_id()
        qid_token = current_query_id.set(query_id)
        # Fresh per-query registry: its snapshot rides back on the
        # result (picklable across the pool's fork boundary) and is
        # merged into the solver-lifetime registry afterwards.
        qreg = MetricsRegistry() if self.metrics is not None else None
        # Same pattern for the tracer, plus the sampling decision —
        # the per-query tracer always records (stride 1); the solver
        # tracer decides *whether* this query is traced at all.
        qtr = None
        if self.tracer is not None and self.tracer.sample():
            qtr = SpanTracer(capacity=self.tracer.capacity)
        root_span = (
            qtr.begin("query", cat="query", algorithm=algorithm,
                      kernel=self.kernel, k=k, query_id=query_id)
            if qtr is not None
            else None
        )
        try:
            return self._solve_inner(
                sources, category, destinations, k, algorithm, alpha, prepared,
                target_bounds, t_start, stats, query_id, qreg, qtr, root_span,
            )
        finally:
            current_query_id.reset(qid_token)

    def _mem_phase(self, name: str, qreg: MetricsRegistry | None):
        if self.memory is None:
            return nullcontext()
        return self.memory.phase(name, qreg)

    def _solve_inner(
        self,
        sources: tuple[int, ...],
        category: str | None,
        destinations: Sequence[int] | None,
        k: int,
        algorithm: str,
        alpha: float,
        prepared: "PreparedCategory | None",
        target_bounds: Callable[[int], float] | None,
        t_start: float,
        stats: SearchStats,
        query_id: str,
        qreg: MetricsRegistry | None,
        qtr: SpanTracer | None,
        root_span: dict | None,
    ) -> QueryResult:
        run = ALGORITHMS[algorithm]
        with maybe_phase(qreg, "prepare"), \
                self._mem_phase("prepare", qreg), \
                maybe_span(qtr, "prepare", cat="phase") as prep_span:
            cache_hits_before = stats.prepared_cache_hits
            if prepared is None:
                dest = self._canonical_destinations(
                    self._resolve(category, destinations, "destination")
                )
                prepared = self._prepared(dest, stats, qreg)
            else:
                self._cache_hits += 1
                stats.prepared_cache_hits += 1
                if qreg is not None:
                    qreg.inc("prepared_cache_hits")
            if len(set(sources)) == 1:
                qg = prepared.query_graph_for(sources[0])
            else:
                qg = build_query_graph(self.graph, sources, prepared.destinations)
            if target_bounds is None:
                target_bounds = prepared.target_bounds
            if self.landmark_index is not None:
                # Lazy: columns of the landmark matrix are reduced on first
                # use per node.  Algorithms that never consult the source
                # bound (DA, BestFirst, plain IterBound) now skip the
                # O(|L| n) vector build entirely; SPT_I touches a handful
                # of columns; SPT_P converts to the eager vector itself.
                source_bounds = self.landmark_index.lazy_source_bounds(qg.sources)
            else:
                source_bounds = ZERO_BOUNDS
            if prep_span is not None:
                prep_span["attrs"]["cache"] = (
                    "hit" if stats.prepared_cache_hits > cache_hits_before else "miss"
                )
        ctx = QueryContext(
            target_bounds=target_bounds,
            source_bounds=source_bounds,
            alpha=alpha,
            stats=stats,
            metrics=qreg,
            tracer=qtr,
        )
        t_search = perf_counter()
        with use_kernel(self.kernel), self._mem_phase("search", qreg), \
                maybe_span(qtr, "search", cat="search"):
            raw = run(qg, k, ctx)
        search_s = perf_counter() - t_search
        paths = [Path(length=p.length, nodes=qg.strip(p.nodes)) for p in raw]
        elapsed_ms = (perf_counter() - t_start) * 1000.0
        snapshot = None
        if qreg is not None:
            # Residue of the search interval not attributed to a named
            # phase (baseline algorithms, driver bookkeeping) — keeps
            # the phase taxonomy tiling elapsed_ms.
            qreg.observe_phase(
                "search_other", max(0.0, search_s - qreg.phase_seconds(SEARCH_PHASES))
            )
            qreg.inc("queries")
            qreg.observe("query_latency_ms", elapsed_ms)
            # Per-kernel dispatch counts (``kpj query --metrics``):
            # which substrate the query's searches actually ran on.
            for kern in KERNELS:
                calls = getattr(stats, f"{kern}_kernel_calls")
                if calls:
                    qreg.inc(f"kernel_dispatch_{kern}", calls)
            if self.memory is not None:
                # Byte gauges: idle scratch buffers pooled on the base
                # graph's CSR snapshot and on the G_Q overlay's.
                overlay = prepared._gq_graph if prepared is not None else None
                for key, value in graph_pool_bytes(self.graph, overlay).items():
                    qreg.set_gauge(key, value)
                self.memory.record_gauges(qreg)
            snapshot = qreg.as_dict()
            self.metrics.merge(qreg)
        trace_snapshot = None
        if qtr is not None:
            qtr.end(root_span, paths=len(paths))
            trace_snapshot = qtr.as_dict()
            self.tracer.absorb(trace_snapshot)
        result = QueryResult(
            paths=paths,
            algorithm=algorithm,
            stats=stats,
            elapsed_ms=elapsed_ms,
            metrics=snapshot,
            trace=trace_snapshot,
            query_id=query_id,
        )
        if self.query_log is not None:
            self.query_log.log_query(
                result,
                query_id=query_id,
                kernel=self.kernel,
                sources=sources,
                category=category,
                destinations=len(prepared.destinations),
                k=k,
            )
        return result


class PreparedCategory:
    """One destination set's source-independent query artefacts.

    Produced by :meth:`KPJSolver.prepare` (or internally by the
    solver's LRU cache); issue any number of ``top_k`` / ``join``
    calls without re-deriving the Eq. (2) bounds, the ``G_Q`` overlay,
    or the backward SPT.  Everything beyond the bound vector is built
    lazily on first use, so an entry costs ``O(n)`` floats until a
    query actually needs more.
    """

    def __init__(
        self,
        solver: KPJSolver,
        destinations: tuple[int, ...],
        target_bounds: Callable[[int], float],
    ) -> None:
        self._solver = solver
        self.destinations = destinations
        self.target_bounds = target_bounds
        self._gq_graph: DiGraph | None = None
        self._backward_spt = None

    # -- cached artefacts ------------------------------------------------
    def query_graph_for(self, source: int) -> QueryGraph:
        """The single-source :class:`QueryGraph` for ``source``.

        The underlying ``G_Q`` overlay (base graph plus virtual
        target) does not depend on the source, so it is built once and
        shared by every KPJ/KSP query against this destination set;
        only the tiny :class:`QueryGraph` wrapper is per-query.
        """
        base = self._solver.graph
        if not 0 <= source < base.n:
            raise QueryError(f"query node {source} out of range [0, {base.n})")
        if self._gq_graph is None:
            self._gq_graph = build_query_graph(
                base, (source,), self.destinations
            ).graph
        return QueryGraph(
            base=base,
            graph=self._gq_graph,
            source=source,
            target=base.n,
            destinations=self.destinations,
            sources=(source,),
        )

    def csr_overlay(self):
        """CSR export of the ``G_Q`` overlay, cached on the overlay.

        This is what the flat kernels run on; materialising it here
        (rather than per query) is the cross-query saving.
        """
        from repro.graph.csr import shared_csr

        if self._gq_graph is None:
            # Any in-range source materialises the source-independent rows.
            self._gq_graph = build_query_graph(
                self._solver.graph, (self.destinations[0],), self.destinations
            ).graph
        return shared_csr(self._gq_graph)

    def backward_spt(self):
        """Full backward SPT toward the virtual target, cached.

        ``dist[v]`` is the *exact* distance from ``v`` to the nearest
        destination — the tightest possible target bound (it dominates
        the Eq. (2) landmark estimate, Prop. 5.1) and the seed from
        which partial-SPT variants can be answered without a fresh
        backward search.
        """
        from repro.pathing.spt import build_spt_to_target

        if self._backward_spt is None:
            overlay = self.csr_overlay()  # ensures the overlay graph exists
            del overlay
            self._backward_spt = build_spt_to_target(
                self._gq_graph, self._solver.graph.n, kernel=self._solver.kernel
            )
        return self._backward_spt

    def exact_target_bounds(self) -> TargetBounds:
        """A :class:`TargetBounds` built from :meth:`backward_spt`.

        Exact distances are valid, consistent A* heuristics on
        ``G_Q``, so they can replace the landmark vector wherever it
        is accepted — results are identical, exploration is minimal.
        """
        import numpy as np

        spt = self.backward_spt()
        return TargetBounds(np.asarray(spt.dist[: self._solver.graph.n]))

    # -- queries ---------------------------------------------------------
    def top_k(
        self,
        source: int,
        k: int = 10,
        algorithm: str = DEFAULT_ALGORITHM,
        alpha: float = 1.1,
        exact_bounds: bool = False,
    ) -> QueryResult:
        """KPJ query against the prepared destination set.

        ``exact_bounds=True`` swaps the Eq. (2) landmark vector for
        the cached backward-SPT distances (see
        :meth:`exact_target_bounds`).
        """
        bounds = self.exact_target_bounds() if exact_bounds else None
        return self._solver._solve(
            (source,),
            None,
            self.destinations,
            k,
            algorithm,
            alpha,
            prepared=self,
            target_bounds=bounds,
        )

    def join(
        self,
        sources: Sequence[int],
        k: int = 10,
        algorithm: str = DEFAULT_ALGORITHM,
        alpha: float = 1.1,
    ) -> QueryResult:
        """GKPJ query against the prepared destination set."""
        return self._solver._solve(
            tuple(sources),
            None,
            self.destinations,
            k,
            algorithm,
            alpha,
            prepared=self,
        )
