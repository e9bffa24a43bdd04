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
  overlay and the Eq. (2) target-bound vector) are memoised per
  ``(destination set, landmark configuration)`` and reused across
  queries, with hit/miss counters surfaced in
  :class:`~repro.core.stats.SearchStats`;
* a **batch API** — :meth:`KPJSolver.solve_batch` answers a list of
  queries, optionally on resident worker processes
  (:mod:`repro.server.service`), returning results in submission order.

Every algorithm runs on one search substrate: the graph's rows read
directly and per-search state in pooled flat arrays (see
:mod:`repro.pathing.flat` and :mod:`repro.core.flat_engine`).

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
from numbers import Real
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
from repro.graph.virtual import QueryGraph, check_query_nodes, is_int
from repro.landmarks.index import ZERO_BOUNDS, LandmarkIndex
from repro.obs.log import QueryLogger, new_query_id
from repro.obs.memory import MemoryTelemetry, scratch_pool_bytes
from repro.obs.metrics import SEARCH_PHASES, MetricsRegistry, maybe_phase
from repro.obs.tracing import SpanTracer, fold, new_record

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
    bounding growth factor; ``stats`` collects the work counters and
    ``record`` is the per-query event record (``None`` when
    observability is off — implementations must guard on that, never
    allocate).  The two are all an implementation reports to.
    """

    target_bounds: Callable[[int], float]
    source_bounds: Callable[[int], float]
    alpha: float
    stats: SearchStats
    record: dict | None = None


def _run_da(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return deviation_algorithm(qg, k, stats=ctx.stats)


def _run_da_spt(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return deviation_spt(qg, k, stats=ctx.stats)


def _run_best_first(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return best_first(qg, k, ctx.target_bounds, stats=ctx.stats)


def _run_iter_bound(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return iter_bound(
        qg, k, ctx.target_bounds, alpha=ctx.alpha, stats=ctx.stats,
        record=ctx.record,
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
        record=ctx.record,
    )


def _run_iter_bound_spti(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return iter_bound_spti(
        qg, k, ctx.target_bounds, ctx.source_bounds, alpha=ctx.alpha, stats=ctx.stats,
        record=ctx.record,
    )


def _run_iter_bound_spti_nl(qg: QueryGraph, k: int, ctx: QueryContext) -> list[Path]:
    return iter_bound_spti(
        qg, k, ZERO_BOUNDS, ZERO_BOUNDS, alpha=ctx.alpha, stats=ctx.stats,
        record=ctx.record,
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
    prepared_cache_size:
        Number of prepared destination sets kept in the LRU
        cross-query cache (``0`` disables caching).  Each entry holds
        the Eq. (2) bounds (one float64 per node, each computed when a
        search first needs it) and, lazily, the ``G_Q`` overlay
        (``O(|V_T|)``: the destination rows and the virtual target's
        in-row, every other row shared with the base graph; the
        compiled tier adds one flag byte per node).  The
        ``prepared_cache_bytes`` gauge sums :attr:`PreparedCategory.nbytes`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When
        set, every query folds its event record — phase wall times
        and the search's queue peaks
        (:func:`~repro.obs.tracing.fold`) — plus its counters and cache
        gauges into a fresh per-query registry, whose snapshot rides
        back on ``QueryResult.metrics`` and then merges here; the
        query's latency goes into this registry's ``query_latency_ms``
        alone.  The solver is the one place a registry is filled: the
        search code reports to ``SearchStats`` and the record only.
        Construction times the landmark build into it.  It is also the
        one sink of :meth:`solve_batch` at any worker count.  When
        ``None`` (default) the entire layer stays off — one ``is
        None`` check per site, no allocation.
    tracer:
        Optional :class:`~repro.obs.tracing.SpanTracer`.  When set,
        every query keeps its event record — ``prepare``, ``comp_sp``,
        ``spt_grow`` / ``test_lb`` / ``division`` per queue pop, then
        the ``iter_bound``, ``search`` and ``query`` containers — on
        ``QueryResult.trace`` and in the tracer's ``records`` (a
        :meth:`solve_batch` call adds its ``batch`` record, at any
        worker count).  A registry alone also records each query, to
        sum its phases, and then drops the record.  With neither
        attached, every hot site stays a single ``is None`` check.
    query_log:
        Optional :class:`~repro.obs.log.QueryLogger`.  When set, every
        query emits one JSON event (query id, algorithm,
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

    Attributes
    ----------
    stats:
        Lifetime :class:`~repro.core.stats.SearchStats`: each query's
        counters, merged once when it returns (a query that raises
        adds nothing), and :meth:`prepare`'s cache lookups.

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
        prepared_cache_size: int = 32,
        metrics: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
        query_log: QueryLogger | None = None,
        memory: MemoryTelemetry | None = None,
    ) -> None:
        if not graph.frozen:
            graph.freeze()
        if prepared_cache_size < 0:
            raise QueryError(
                f"prepared_cache_size must be >= 0, got {prepared_cache_size}"
            )
        self.graph = graph
        self.categories = categories
        self.prepared_cache_size = prepared_cache_size
        self.metrics = metrics
        self.tracer = tracer
        self.query_log = query_log
        self.memory = memory
        self._prepared_cache: OrderedDict[tuple, PreparedCategory] = OrderedDict()
        self.stats = SearchStats()
        if isinstance(landmarks, int):
            with maybe_phase(metrics, "landmark_build"):
                self.landmark_index: LandmarkIndex | None = LandmarkIndex.build(
                    graph, landmarks, strategy=landmark_strategy, seed=seed
                )
            if metrics is not None:
                metrics.set_gauge("landmark_matrix_bytes", self.landmark_index.nbytes)
        else:
            self.landmark_index = landmarks

    @property
    def kernel(self) -> str:
        """The search substrate's name, always ``"flat"`` — reported on
        ``/status`` and in benchmark records."""
        return "flat"

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
    ) -> list[QueryResult]:
        """Answer a list of queries, optionally on resident workers.

        Each query is a :class:`~repro.server.service.BatchQuery` or a
        mapping with the same fields (``source`` required;
        ``category``/``destinations``, ``k``, ``algorithm``, ``alpha``
        optional).  With ``workers > 1`` the batch runs on a
        :class:`~repro.server.service.QueryService` started for the
        call — the graph, landmark index, and the batch's prewarmed
        destination sets are shipped once per worker via fork — and
        results come back **in submission order**, identical to what
        sequential solving returns.  See
        :func:`repro.server.service.run_batch` for the details and the
        platforms where the batch runs sequentially.

        The batch reports into this solver's ``stats``, ``metrics`` and
        ``tracer``, at any worker count: per-query snapshots and records
        cross the process boundary on each result and are merged or
        kept before the call returns (the batch's aggregate counters
        are the change in ``stats``).  A multi-worker batch adds the
        parent-side prewarm's cache lookups to ``stats`` and the
        service's ``warmup`` phase and counters to ``metrics``, and the
        whole call adds one ``batch`` record whose span holds every
        query's span tree on export.
        """
        from repro.server.service import run_batch

        return run_batch(self, queries, workers=workers)

    def prepare(
        self,
        category: str | None = None,
        destinations: Sequence[int] | None = None,
    ) -> "PreparedCategory":
        """Pre-resolve a destination set for a batch of queries.

        The returned handle shares the solver's prepared-category
        cache: the Eq. (2) target-bound vector and the ``G_Q`` overlay
        are computed once per ``(destination set, landmark
        configuration)`` and reused by every ``top_k`` / ``join``
        issued against the handle *or* directly against the solver —
        the paper's "computed once for each query" step, hoisted
        across the workload.  The lookup counts in ``self.stats``.
        """
        with maybe_phase(self.metrics, "prepare"):
            dest = self._resolve(category, destinations, "destination")
            return self._prepared(
                self._canonical_destinations(dest), self.stats, self.metrics
            )

    def cache_info(self) -> dict[str, int]:
        """Prepared-category cache occupancy, bound, and ``self.stats``'s
        lifetime hit and miss counters."""
        return {
            "entries": len(self._prepared_cache),
            "size_bound": self.prepared_cache_size,
            "hits": self.stats.prepared_cache_hits,
            "misses": self.stats.prepared_cache_misses,
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
        """Deduplicated, sorted, type- and range-checked destination tuple."""
        if not destinations:
            raise QueryError("query needs at least one destination node")
        check_query_nodes(destinations, self.graph.n)
        return tuple(sorted(set(destinations)))

    def _prepared(
        self,
        dest: tuple[int, ...],
        stats: SearchStats,
        metrics: MetricsRegistry | None = None,
    ) -> "PreparedCategory":
        """Fetch or build the prepared artefacts for ``dest`` (LRU).

        The cache key is the canonical destination tuple plus the
        landmark configuration — a different landmark set implies
        different bound vectors, so the two must never alias.  The hit
        or miss is counted on ``stats``; occupancy gauges on
        ``metrics`` when given.
        """
        lm = self.landmark_index
        key = (dest, lm.landmarks if lm is not None else None)
        cache = self._prepared_cache
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            stats.prepared_cache_hits += 1
            return hit
        stats.prepared_cache_misses += 1
        bounds = lm.to_target_bounds(dest) if lm is not None else ZERO_BOUNDS
        prepared = PreparedCategory(self, dest, bounds)
        if self.prepared_cache_size > 0:
            cache[key] = prepared
            while len(cache) > self.prepared_cache_size:
                cache.popitem(last=False)
        if metrics is not None:
            metrics.set_gauge("prepared_cache_entries", len(cache))
            metrics.set_gauge(
                "prepared_cache_bytes", sum(entry.nbytes for entry in cache.values())
            )
        return prepared

    def _mem_phase(self, name: str, qreg: MetricsRegistry | None):
        if self.memory is None:
            return nullcontext()
        return self.memory.phase(name, qreg)

    def _solve(
        self,
        sources: tuple[int, ...],
        category: str | None,
        destinations: Sequence[int] | None,
        k: int,
        algorithm: str,
        alpha: float,
        prepared: "PreparedCategory | None" = None,
    ) -> QueryResult:
        t_start = perf_counter()
        # Fast paths first: plain int / float skip the ABC checks.
        if type(k) is not int and not is_int(k) or k <= 0:
            raise QueryError(f"k must be a positive integer, got {k!r}")
        if type(alpha) is not float and (
            isinstance(alpha, bool) or not isinstance(alpha, Real)
        ) or not alpha > 1.0:
            raise QueryError(f"alpha must be a real number > 1, got {alpha!r}")
        try:
            run = ALGORITHMS[algorithm]
        except KeyError:
            known = ", ".join(sorted(ALGORITHMS))
            raise QueryError(
                f"unknown algorithm {algorithm!r}; choose one of: {known}"
            ) from None
        if not sources:
            raise QueryError("query needs at least one source node")
        check_query_nodes(sources, self.graph.n)
        stats = SearchStats()
        # Stable query id: stamped on the result, the record's query
        # event (the root of every span of the query), and the log event.
        query_id = new_query_id()
        # Fresh per-query registry: its snapshot rides back on the
        # result (picklable across the process boundary) and is
        # merged into the solver-lifetime registry afterwards.
        qreg = MetricsRegistry() if self.metrics is not None else None
        # Either observer turns the record on: the registry's phases
        # are its sums, and only a tracer keeps it.
        record = None
        if qreg is not None or self.tracer is not None:
            record = new_record()
            t_prepare = perf_counter()
        with self._mem_phase("prepare", qreg):
            if prepared is None:
                dest = self._canonical_destinations(
                    self._resolve(category, destinations, "destination")
                )
                prepared = self._prepared(dest, stats, qreg)
            else:
                stats.prepared_cache_hits += 1
            if len(set(sources)) == 1:
                qg = prepared.query_graph_for(sources[0])
            else:
                # Both endpoint sets are checked by now.
                qg = QueryGraph.overlay(
                    self.graph, tuple(sorted(set(sources))), prepared.destinations
                )
            if self.landmark_index is not None:
                # Lazy: columns of the landmark matrix are reduced on first
                # use per node.  Algorithms that never consult the source
                # bound (DA, BestFirst, plain IterBound) now skip the
                # O(|L| n) vector build entirely; SPT_I touches a handful
                # of columns; SPT_P converts to the eager vector itself.
                source_bounds = self.landmark_index.lazy_source_bounds(qg.sources)
            else:
                source_bounds = ZERO_BOUNDS
        if record is not None:
            record["events"].append((
                "prepare", t_prepare, perf_counter(),
                "hit" if stats.prepared_cache_hits else "miss",
            ))
        ctx = QueryContext(
            target_bounds=prepared.target_bounds,
            source_bounds=source_bounds,
            alpha=alpha,
            stats=stats,
            record=record,
        )
        t_search = perf_counter()
        with self._mem_phase("search", qreg):
            raw = run(qg, k, ctx)
            # Stripping the virtual endpoints finishes the search's
            # answer, so it, the one merge into the solver's lifetime
            # stats and the fold of the record's phases and peaks count
            # toward search_other below.
            paths = [Path(length=p.length, nodes=qg.strip(p.nodes)) for p in raw]
            self.stats.merge(stats)
            if qreg is not None:
                fold(qreg, record)
                qreg.inc("queries")
            # The search's inputs, its raw answer and an untraced
            # record go here, so their teardown is search time too.
            del raw, ctx, source_bounds
            if self.tracer is None:
                record = None
        t_end = perf_counter()
        elapsed_ms = (t_end - t_start) * 1000.0
        snapshot = None
        if qreg is not None:
            # Residue of the search interval not attributed to a named
            # phase (baseline algorithms, driver bookkeeping) — keeps
            # the phase taxonomy tiling elapsed_ms.
            qreg.observe_phase(
                "search_other",
                max(0.0, t_end - t_search - qreg.phase_seconds(SEARCH_PHASES)),
            )
            if self.memory is not None:
                # Byte gauges: idle scratch buffers pooled on the base
                # graph (searches on every G_Q overlay share them).
                for key, value in scratch_pool_bytes(self.graph).items():
                    qreg.set_gauge(key, value)
                self.memory.record_gauges(qreg)
            # The per-query registry is dropped here, so the snapshot
            # takes its dicts rather than copies (it holds no histogram).
            snapshot = {"counters": qreg.counters, "gauges": qreg.gauges,
                        "phases": qreg.phases, "histograms": qreg.histograms}
            self.metrics.merge(qreg)
            # Into the solver's registry only: a one-sample histogram
            # would double every snapshot's size (a service observes
            # the latency of the results it merges itself).
            self.metrics.observe("query_latency_ms", elapsed_ms)
        trace = None
        if self.tracer is not None:
            trace = record
            record["events"] += (
                ("search", t_search, t_end, None),
                ("query", t_start, t_end, (algorithm, k, query_id, len(paths))),
            )
            self.tracer.records.append(record)
        result = QueryResult(
            paths=paths,
            algorithm=algorithm,
            stats=stats,
            elapsed_ms=elapsed_ms,
            metrics=snapshot,
            trace=trace,
            query_id=query_id,
        )
        if self.query_log is not None:
            self.query_log.log_query(
                result,
                query_id=query_id,
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
    calls without re-deriving the Eq. (2) bounds or the ``G_Q``
    overlay.  The overlay is built lazily on first use and costs
    ``O(|V_T|)`` (it shares the base graph's rows), so an entry stays
    at about one float64 per node (:attr:`nbytes`).
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

    @property
    def nbytes(self) -> int:
        """Bytes the entry holds: the Eq. (2) buffer (``n + 2`` floats)
        and landmark minima, plus the destination flags and virtual
        rows the compiled settle loop caches on the overlay once it has
        run against this set (the overlay's rows are the base graph's)."""
        total = getattr(self.target_bounds, "nbytes", 0)
        gq = self._gq_graph
        if gq is not None and gq.adjacency.kernel_arrays is not None:
            total += sum(array.nbytes for array in gq.adjacency.kernel_arrays)
        return total

    # -- cached artefacts ------------------------------------------------
    def query_graph_for(self, source: int) -> QueryGraph:
        """The single-source :class:`QueryGraph` for ``source``.

        The underlying ``G_Q`` overlay (base graph plus virtual
        target) does not depend on the source, so it is built once and
        shared by every KPJ/KSP query against this destination set;
        only the tiny :class:`QueryGraph` wrapper is per-query.
        """
        base = self._solver.graph
        check_query_nodes((source,), base.n)
        if self._gq_graph is None:
            # The destinations were checked and canonicalised on entry.
            self._gq_graph = QueryGraph.overlay(base, (source,), self.destinations).graph
        return QueryGraph(
            base=base,
            graph=self._gq_graph,
            source=source,
            target=base.n,
            destinations=self.destinations,
            sources=(source,),
        )

    # -- queries ---------------------------------------------------------
    def top_k(
        self,
        source: int,
        k: int = 10,
        algorithm: str = DEFAULT_ALGORITHM,
        alpha: float = 1.1,
    ) -> QueryResult:
        """KPJ query against the prepared destination set."""
        return self._solver._solve(
            (source,),
            None,
            self.destinations,
            k,
            algorithm,
            alpha,
            prepared=self,
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
