"""Compressed-sparse-row (CSR) export of a :class:`DiGraph`.

The search algorithms read the :class:`DiGraph` rows directly; the CSR
arrays serve what runs over whole graphs in bulk: scipy's C Dijkstra
(:mod:`repro.pathing.flat`), connectivity checks, degree statistics,
and the shared-memory export of :mod:`repro.server.shared`.
:class:`CSRGraph` is an immutable snapshot with the classic
three-array layout (``indptr``, ``indices``, ``weights``).

* :meth:`CSRGraph.reverse` — the reverse-orientation CSR (cached), for
  searches toward a target;
* :func:`shared_csr` — a per-graph snapshot cache, so repeated scipy
  runs against the same frozen graph pay the export once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GraphError
from repro.graph.digraph import DiGraph, ReversedView

__all__ = ["CSRGraph", "to_csr", "shared_csr"]


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
    # Lazy caches (reverse orientation, scipy matrix, typed arrays).
    # They are derived data, deliberately excluded from equality/repr,
    # and filled in via object.__setattr__ because the dataclass is
    # frozen.
    _reverse: "CSRGraph | None" = field(
        default=None, repr=False, compare=False
    )
    _spmat: object = field(default=None, repr=False, compare=False)
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

        Whole-graph searches toward a target (the full SPT of DA-SPT,
        query stratification) run forward over this.  The reverse of
        the reverse is the original object.
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
    so every scipy run against the same graph shares one export (and
    therefore one reverse orientation and one scipy matrix).  A
    :class:`~repro.graph.digraph.ReversedView` resolves to the cached
    snapshot of its underlying graph, reversed — both orientations
    stay cached.  Other row-exposing objects fall back to an uncached
    :func:`to_csr`.
    """
    if isinstance(graph, ReversedView):
        return shared_csr(graph.underlying).reverse()
    if isinstance(graph, DiGraph):
        if not graph.frozen:
            raise GraphError("a CSR snapshot needs a frozen graph")
        cached = graph.csr_cache
        if cached is None:
            cached = to_csr(graph)
            graph.csr_cache = cached
        return cached
    return to_csr(graph)
