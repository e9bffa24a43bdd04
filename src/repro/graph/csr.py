"""Compressed-sparse-row (CSR) export of a :class:`DiGraph`.

The core dict-kernel search algorithms iterate adjacency as Python
tuples (fastest in pure CPython), but the flat kernels of
:mod:`repro.pathing.flat` — and analytics such as connectivity checks,
degree statistics, and vectorised all-pairs sampling — run over numpy
CSR arrays.  :class:`CSRGraph` is an immutable snapshot with the
classic three-array layout (``indptr``, ``indices``, ``weights``).

Beyond the plain snapshot this module provides the pieces the flat
search substrate needs without ever materialising a new
:class:`DiGraph`:

* :meth:`CSRGraph.reverse` — the reverse-orientation CSR (cached), for
  backward searches and shortest-path-tree builds;
* :func:`query_overlay` — the virtual-node ``G_Q`` transform of
  Section 3/6 expressed directly as CSR arrays;
* :func:`shared_csr` — a per-graph snapshot cache, so repeated flat
  kernel calls against the same frozen graph pay the export once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.graph.digraph import DiGraph, ReversedView
from repro.graph.virtual import OverlayRows

__all__ = ["CSRGraph", "to_csr", "query_overlay", "shared_csr"]


@dataclass(frozen=True)
class CSRGraph:
    """Immutable CSR view of a directed weighted graph.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; node ``u``'s edges occupy
        ``indices[indptr[u]:indptr[u+1]]``.
    indices:
        ``int64`` array of edge heads.
    weights:
        ``float64`` array of edge weights, parallel to ``indices``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    # Lazy caches (reverse orientation, python-list mirrors, scratch
    # buffers).  They are derived data, deliberately excluded from
    # equality/repr, and filled in via object.__setattr__ because the
    # dataclass is frozen.
    _reverse: "CSRGraph | None" = field(
        default=None, repr=False, compare=False
    )
    _lists: tuple | None = field(default=None, repr=False, compare=False)
    _spmat: object = field(default=None, repr=False, compare=False)
    _scratch_pool: list = field(
        default_factory=list, repr=False, compare=False
    )
    # Pools for the flat iterative-bounding engine: generation-stamped
    # node masks (subspace blocked sets) and all-inf float arrays (the
    # incremental-SPT heuristic vector).  Like the scratch pool they
    # are shared by every search against this snapshot.
    _mask_pool: list = field(default_factory=list, repr=False, compare=False)
    _inf_pool: list = field(default_factory=list, repr=False, compare=False)
    _rows: list | None = field(default=None, repr=False, compare=False)
    # The dtype-checked contiguous array triple (see typed_arrays).
    _typed: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.indices)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node as an ``int64`` array."""
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        """Heads of the edges leaving ``u``."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def edge_weights(self, u: int) -> np.ndarray:
        """Weights of the edges leaving ``u`` (parallel to :meth:`neighbors`)."""
        return self.weights[self.indptr[u] : self.indptr[u + 1]]

    def degree_histogram(self) -> dict[int, int]:
        """Mapping from out-degree to the number of nodes with that degree."""
        degrees, counts = np.unique(self.out_degrees(), return_counts=True)
        return {int(d): int(c) for d, c in zip(degrees, counts)}

    # ------------------------------------------------------------------
    # Derived orientations / mirrors
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """The reverse-orientation CSR (every edge flipped), cached.

        Backward searches (SPT builds toward a target, reverse
        ``IterBound-SPT_I``) run forward over this.  The reverse of the
        reverse is the original object.
        """
        if self._reverse is None:
            n = self.n
            order = np.argsort(self.indices, kind="stable")
            rindices = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.indptr)
            )[order]
            rweights = self.weights[order]
            rindptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.indices, minlength=n), out=rindptr[1:])
            rev = CSRGraph(indptr=rindptr, indices=rindices, weights=rweights)
            object.__setattr__(rev, "_reverse", self)
            object.__setattr__(self, "_reverse", rev)
        return self._reverse

    def adjacency_lists(self) -> tuple[list[int], list[int], list[float]]:
        """Python-list mirrors ``(indptr, indices, weights)``, cached.

        CPython indexes plain lists noticeably faster than numpy
        arrays element-wise; the python-loop flat kernels iterate
        these, sharing one conversion per snapshot.
        """
        if self._lists is None:
            object.__setattr__(
                self,
                "_lists",
                (
                    self.indptr.tolist(),
                    self.indices.tolist(),
                    self.weights.tolist(),
                ),
            )
        return self._lists

    def row_lists(self) -> list[list[tuple[int, float]]]:
        """Per-node ``[(v, w), ...]`` rows in CSR edge order, cached.

        Iterating a row of tuples (one ``FOR_ITER`` + unpack per edge)
        is about twice as fast in CPython as the ``indptr`` index
        arithmetic over the flat mirrors, so the hottest relaxation
        loops (the flat A* kernel and the incremental-SPT settle loop)
        run over these.  Edge order — and therefore every tie-break —
        is identical to the flat arrays.
        """
        if self._rows is None:
            indptr, heads, wts = self.adjacency_lists()
            rows = [
                list(zip(heads[indptr[u] : indptr[u + 1]], wts[indptr[u] : indptr[u + 1]]))
                for u in range(self.n)
            ]
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def typed_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """C-contiguous ``(indptr, indices, weights)`` with fixed dtypes.

        Consumers that copy the raw buffers (the shared-memory export
        of :mod:`repro.server.shared`) need fixed dtypes
        (``int64``/``int64``/``float64``) and contiguous memory; the
        snapshot arrays already satisfy both in the common case, so
        this normally returns the attributes themselves.  Arrays built
        elsewhere (slices, alternate dtypes) are converted once and
        the checked triple is cached on the snapshot.
        """
        if self._typed is None:
            triple = (
                np.ascontiguousarray(self.indptr, dtype=np.int64),
                np.ascontiguousarray(self.indices, dtype=np.int64),
                np.ascontiguousarray(self.weights, dtype=np.float64),
            )
            object.__setattr__(self, "_typed", triple)
        return self._typed


def to_csr(graph) -> CSRGraph:
    """Snapshot a :class:`DiGraph` (or any object exposing row-per-node
    ``adjacency``) into CSR arrays."""
    rows = graph.adjacency
    n = len(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    m = int(indptr[-1])
    indices = np.empty(m, dtype=np.int64)
    weights = np.empty(m, dtype=np.float64)
    pos = 0
    for row in rows:
        for v, w in row:
            indices[pos] = v
            weights[pos] = w
            pos += 1
    return CSRGraph(indptr=indptr, indices=indices, weights=weights)


def shared_csr(graph) -> CSRGraph:
    """The cached CSR snapshot of a frozen graph.

    For a :class:`DiGraph` the snapshot is stored on the graph object,
    so every flat-kernel call against the same graph shares one export
    (and therefore one reverse orientation, one list mirror, and one
    scratch-buffer pool).  A ``G_Q`` overlay's snapshot is derived from
    its base graph's by :func:`query_overlay` — one vectorised insert
    instead of a Python walk over every row.  A
    :class:`~repro.graph.digraph.ReversedView` resolves to the cached
    snapshot of its underlying graph, reversed — both orientations
    stay cached.  Other row-exposing objects fall back to an uncached
    :func:`to_csr`.
    """
    if isinstance(graph, ReversedView):
        return shared_csr(graph.underlying).reverse()
    if isinstance(graph, DiGraph):
        if not graph.frozen:
            raise GraphError("flat kernels need a frozen graph")
        cached = graph.csr_cache
        if cached is None:
            rows = graph.adjacency
            if isinstance(rows, OverlayRows) and not rows.reverse:
                cached = query_overlay(
                    shared_csr(rows.base), rows.destinations, rows.sources
                )
            else:
                cached = to_csr(graph)
            graph.csr_cache = cached
        return cached
    return to_csr(graph)


def query_overlay(
    base: CSRGraph,
    destinations: Sequence[int],
    sources: Sequence[int] = (),
) -> CSRGraph:
    """The virtual-node ``G_Q`` transform as a CSR snapshot.

    Appends a virtual target node ``n`` with a zero-weight edge
    ``v -> n`` for every destination ``v``; when more than one source
    is given (GKPJ), additionally appends a virtual source ``n + 1``
    with zero-weight edges to every source.  Mirrors
    :func:`repro.graph.virtual.build_query_graph` without building a
    :class:`DiGraph` — the arrays are rebuilt with one vectorised
    insert, ``O(m + |V_T|)``.

    Node ids match the DiGraph overlay: the virtual target is ``n``,
    the virtual source (if any) is ``n + 1``.
    """
    n = base.n
    dest = np.asarray(sorted(set(int(v) for v in destinations)), dtype=np.int64)
    if dest.size == 0:
        raise GraphError("query overlay needs at least one destination")
    if dest.min() < 0 or dest.max() >= n:
        raise GraphError(f"destination out of range [0, {n})")
    target = n
    # Insert the edge v -> target at the end of each destination row.
    insert_at = base.indptr[dest + 1]
    indices = np.insert(base.indices, insert_at, target)
    weights = np.insert(base.weights, insert_at, 0.0)
    added = np.zeros(n + 1, dtype=np.int64)
    added[1:] = np.cumsum(np.bincount(dest, minlength=n))
    indptr = base.indptr + added
    srcs = tuple(sorted(set(int(s) for s in sources)))
    if len(srcs) > 1:
        if srcs[0] < 0 or srcs[-1] >= n:
            raise GraphError(f"source out of range [0, {n})")
        # Virtual target row (empty) then virtual source row.
        indptr = np.concatenate(
            [indptr, [indptr[-1], indptr[-1] + len(srcs)]]
        )
        indices = np.concatenate([indices, np.asarray(srcs, dtype=np.int64)])
        weights = np.concatenate([weights, np.zeros(len(srcs))])
    else:
        indptr = np.concatenate([indptr, [indptr[-1]]])
    return CSRGraph(indptr=indptr, indices=indices, weights=weights)
