"""The flat search substrate: row access, pooled search state, scipy.

Every search in the package runs on this substrate, whichever
algorithm drives it:

* **Adjacency** is read from the :class:`~repro.graph.digraph.DiGraph`
  rows — lists of ``(v, w)`` tuples, the layout CPython iterates
  fastest.  On a ``G_Q`` overlay (:class:`~repro.graph.virtual.OverlayRows`)
  the base graph's own rows serve every real node; only the virtual
  nodes and the few rows the transform patches are stored apart.
  :func:`row_source` hands a search loop both, so reading a row costs
  a dict membership test and an index, never a Python call.
* **Per-search state** — tentative distances, parents, settled marks —
  lives in preallocated, generation-stamped buffers
  (:class:`FlatScratch`) pooled on the *base* graph with ``n + 2``
  slots, so the virtual target and source of any overlay fit and a
  search allocates nothing proportional to ``n``.  The compiled
  settle loop's state (:class:`NativeScratch`) is pooled the same way.
* **Whole-graph distance sweeps** (landmark SSSP, query stratification,
  the full SPT of DA-SPT) go to ``scipy.sparse.csgraph.dijkstra`` over
  the base graph's cached CSR export when scipy imports
  (:func:`scipy_csr`); without scipy, callers fall back to one Python
  loop over the rows.  Neither path records per-node work counters,
  so counters do not depend on whether scipy is installed.

Cutoff semantics are inclusive everywhere: a node whose distance is
exactly ``cutoff`` **is** settled (``<=``, not ``<``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import native
from repro.graph.csr import CSRGraph, shared_csr
from repro.graph.digraph import DiGraph, ReversedView
from repro.graph.virtual import OverlayRows

__all__ = [
    "HAVE_SCIPY",
    "FlatScratch",
    "NativeScratch",
    "row_source",
    "acquire_scratch",
    "release_scratch",
    "acquire_native_scratch",
    "release_native_scratch",
    "acquire_inf_array",
    "release_inf_array",
    "scipy_csr",
    "sparse_matrix",
    "scipy_dijkstra",
]

INF = float("inf")

try:  # scipy is optional: the python loops keep every search exact.
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised only without scipy
    scipy_dijkstra = None
    HAVE_SCIPY = False

_NO_PATCHES: dict[int, list] = {}  # never written


class FlatScratch:
    """Preallocated per-search buffers, reused across searches.

    ``dist``/``parent`` entries are only meaningful where ``stamp``
    equals the current generation ``gen``; :meth:`begin` starts a new
    search by bumping the generation instead of clearing ``O(n)``
    memory.  Instances are pooled on the base graph
    (:func:`acquire_scratch` / :func:`release_scratch`), so nested or
    back-to-back searches never fight over buffers and never
    reallocate.
    """

    __slots__ = ("n", "dist", "parent", "stamp", "gen", "home")

    def __init__(self, n: int, home: list | None = None) -> None:
        self.n = n
        #: The pool this buffer returns to.
        self.home = home
        self.dist: list[float] = [INF] * n
        self.parent: list[int] = [-1] * n
        self.stamp: list[int] = [0] * n
        self.gen = 0

    def begin(self) -> int:
        """Start a new search; returns the fresh generation tag."""
        self.gen += 1
        return self.gen

    def nbytes(self) -> int:
        """Nominal buffer footprint: 8 bytes per slot across the three
        ``O(n)`` lists (pointer-array cost; boxed-object overhead of
        the CPython floats/ints is deliberately excluded so the figure
        is deterministic).  Feeds the memory-telemetry pool gauges.
        """
        return self.n * 3 * 8


class NativeScratch:
    """The compiled settle loop's pooled state (:mod:`repro.native`).

    ``float64``/``int64`` buffers of ``n + 2`` slots — dist, stamp,
    parent, the tree's ``h``, the settled order and the settled
    destinations — plus a binary heap of ``(key, node)`` entries, and
    the C struct (``state``) that points at them and at the base
    graph's CSR export.  The heap holds ``1 + m + 2n`` entries: Alg. 7
    pushes the source once and then at most once per edge of ``G_Q``,
    which has ``m + |V_T| + |V_S|`` of them; a push past the end is
    refused all the same.  Between trees ``h`` is all ``inf`` and the
    stamps carry no current generation.  ``h``, ``parent`` and
    ``stamp`` are memoryviews, so Python reads plain floats and ints
    from them.
    """

    __slots__ = ("state", "h", "parent", "stamp", "dest_nodes", "dest_dists",
                 "_keep", "_nbytes", "home")

    def __init__(self, base, home: list | None = None) -> None:
        self.home = home
        n = base.n
        size = n + 2
        indptr, indices, weights = shared_csr(base).typed_arrays()
        h = np.full(size, INF)
        parent = np.empty(size, dtype=np.int64)
        stamp = np.zeros(size, dtype=np.int64)
        dest_nodes = np.empty(size, dtype=np.int64)
        dest_dists = np.empty(size)
        heap = np.empty(
            1 + len(indices) + 2 * n, dtype=[("key", "f8"), ("node", "i8")]
        )
        state = native.ffi.new("kpj_spt *")
        keep = []
        owned = (
            ("dist", "double[]", np.empty(size)),
            ("stamp", "int64_t[]", stamp),
            ("parent", "int64_t[]", parent),
            ("h", "double[]", h),
            ("order", "int64_t[]", np.empty(size, dtype=np.int64)),
            ("dest_nodes", "int64_t[]", dest_nodes),
            ("dest_dists", "double[]", dest_dists),
            ("heap", "kpj_entry[]", heap),
        )
        for field, ctype, array in (
            ("indptr", "int64_t[]", indptr),
            ("indices", "int64_t[]", indices),
            ("weights", "double[]", weights),
        ) + owned:
            cdata = native.pointer(ctype, array)
            keep.append(cdata)
            setattr(state, field, cdata)
        # The CSR arrays are the base graph's shared export: not counted.
        self._nbytes = sum(array.nbytes for _, _, array in owned)
        state.n = n
        state.heap_cap = len(heap)
        self.state = state
        self.h = memoryview(h)
        self.parent = memoryview(parent)
        self.stamp = memoryview(stamp)
        self.dest_nodes = dest_nodes
        self.dest_dists = dest_dists
        self._keep = keep

    def nbytes(self) -> int:
        """Bytes of the buffers this state owns: seven ``n + 2``-slot
        vectors and the heap (the CSR export is the base graph's).
        Feeds the memory-telemetry pool gauge."""
        return self._nbytes


def _base_graph(graph):
    """The input graph behind a reversed view or a ``G_Q`` overlay."""
    if isinstance(graph, ReversedView):
        graph = graph.underlying
    rows = graph.adjacency
    return rows.base if isinstance(rows, OverlayRows) else graph


def _buffer_size(graph) -> int:
    """``n + 2`` of the input graph behind ``graph``: room for the
    virtual target and source of any overlay."""
    return _base_graph(graph).n + 2


def row_source(graph) -> tuple[Sequence[list], dict[int, list]]:
    """``(base_rows, patched)`` for reading ``graph``'s rows in a loop.

    Row ``u`` is ``patched[u]`` when ``u in patched`` and
    ``base_rows[u]`` otherwise — for an overlay, the base graph's row
    list plus the stored rows; for any other graph, its row list plus
    an empty dict.  The rows are the same ``(v, w)`` tuples in the same
    order as ``graph.adjacency[u]``.
    """
    rows = graph.adjacency
    if isinstance(rows, OverlayRows):
        return rows.base_rows, rows.patched
    return rows, _NO_PATCHES


def _pool(graph, kind: str) -> list:
    # Overlays and reversed views share their base graph's pools dict,
    # so every query against one input graph draws from one pool.
    pools = graph.search_pools
    pool = pools.get(kind)
    if pool is None:
        pool = pools[kind] = []
    return pool


def acquire_scratch(graph) -> FlatScratch:
    """Check a scratch buffer out of the base graph's pool (or make one)."""
    pool = _pool(graph, "scratch")
    if pool:
        return pool.pop()
    return FlatScratch(_buffer_size(graph), pool)


def release_scratch(scratch: FlatScratch) -> None:
    """Return a scratch buffer to the pool it came from."""
    scratch.home.append(scratch)


def acquire_native_scratch(graph) -> NativeScratch:
    """Check the compiled settle loop's state out of the base graph's
    pool (or make one)."""
    pool = _pool(graph, "native")
    if pool:
        return pool.pop()
    return NativeScratch(_base_graph(graph), pool)


def release_native_scratch(scratch: NativeScratch) -> None:
    """Restore ``h`` to all ``inf`` and return ``scratch`` to its pool."""
    native.lib.kpj_spt_release(scratch.state)
    scratch.home.append(scratch)


def acquire_inf_array(graph) -> list[float]:
    """An all-``inf`` float list of ``n + 2`` entries from the pool.

    The incremental-SPT engine uses one as its dense heuristic vector
    (settled nodes carry their exact distance, everything else stays
    ``inf`` = "outside the tree, prune").  The caller must return it
    via :func:`release_inf_array` with the list of indices it wrote,
    which restores the all-``inf`` invariant in ``O(|touched|)``.
    """
    pool = _pool(graph, "inf")
    if pool:
        return pool.pop()
    return [INF] * _buffer_size(graph)


def release_inf_array(graph, arr: list[float], touched) -> None:
    """Reset ``touched`` entries to ``inf`` and return ``arr`` to the pool."""
    for v in touched:
        arr[v] = INF
    _pool(graph, "inf").append(arr)


def scipy_csr(graph) -> CSRGraph | None:
    """The cached CSR snapshot scipy searches ``graph`` over, if any.

    ``None`` — meaning "run the Python loop over the rows" — without
    scipy, for graphs other than a frozen :class:`DiGraph` with plain
    row lists (or a reversed view of one), and for edgeless graphs.
    An overlay is never exported: its searches are rewritten onto the
    base graph by the caller (see
    :func:`repro.pathing.spt.build_spt_to_target`).
    """
    if not HAVE_SCIPY:
        return None
    plain = graph.underlying if isinstance(graph, ReversedView) else graph
    if (
        not isinstance(plain, DiGraph)
        or not plain.frozen
        or isinstance(plain.adjacency, OverlayRows)
        or plain.m == 0
    ):
        return None
    return shared_csr(graph)


def sparse_matrix(csr: CSRGraph):
    """The scipy ``csr_matrix`` sharing the snapshot's arrays, cached."""
    if csr._spmat is None:
        mat = _csr_matrix(
            (csr.weights, csr.indices, csr.indptr), shape=(csr.n, csr.n)
        )
        object.__setattr__(csr, "_spmat", mat)
    return csr._spmat
