"""Compact directed weighted graph.

:class:`DiGraph` is the substrate every algorithm in this package runs
on.  Nodes are dense integers ``0..n-1``; adjacency is stored as one
Python list of ``(neighbour, weight)`` tuples per node, which is the
fastest neighbour-iteration layout available to pure CPython (tuple
unpacking in a ``for`` loop beats any numpy-per-edge indexing for the
graph sizes we target).  The reverse adjacency is materialised lazily
and cached, since only some algorithms (DA-SPT, ``SPT_P``, the
reverse-orientation ``IterBound-SPT_I``) need it.

Graphs are mutable while being built and are *frozen* before querying;
freezing is what allows the reverse adjacency and derived indexes to be
cached safely.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from repro.exceptions import GraphError

__all__ = ["DiGraph", "ReversedView"]


class DiGraph:
    """A directed graph with non-negative float edge weights.

    Parameters
    ----------
    n:
        Number of nodes.  Nodes are the integers ``0..n-1``.

    Notes
    -----
    Parallel edges are collapsed to the minimum weight on
    :meth:`freeze` (shortest-path algorithms only ever use the lightest
    parallel edge).  Self-loops are rejected: they can never appear on a
    simple path.
    """

    __slots__ = (
        "_n", "_m", "_adj", "_radj", "_frozen", "_max_weight", "_csr",
        "search_pools",
    )

    def __init__(self, n: int) -> None:
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        self._n = n
        self._m = 0
        self._adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self._radj: list[list[tuple[int, float]]] | None = None
        self._frozen = False
        self._max_weight = 0.0
        self._csr = None
        #: Reusable per-search buffers of :mod:`repro.pathing.flat`,
        #: keyed by kind.  A ``G_Q`` overlay shares its base graph's
        #: dict (see :meth:`from_shared_rows`).
        self.search_pools: dict[str, list] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add the directed edge ``u -> v`` with the given weight."""
        if self._frozen:
            raise GraphError("cannot add edges to a frozen graph")
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        w = float(weight)
        if not math.isfinite(w) or w < 0.0:
            raise GraphError(f"edge weight must be finite and >= 0, got {weight!r}")
        if w > self._max_weight:
            self._max_weight = w
        self._adj[u].append((v, w))
        self._m += 1
        self._radj = None

    def add_bidirectional_edge(self, u: int, v: int, weight: float) -> None:
        """Add both ``u -> v`` and ``v -> u`` with the same weight.

        Road-network edges are bidirectional; this helper keeps dataset
        builders terse.
        """
        self.add_edge(u, v, weight)
        self.add_edge(v, u, weight)

    def freeze(self) -> "DiGraph":
        """Finalise the graph: dedupe parallel edges and forbid mutation.

        Returns ``self`` so construction can be chained.
        """
        if self._frozen:
            return self
        m = 0
        for u in range(self._n):
            edges = self._adj[u]
            if len(edges) > 1:
                best: dict[int, float] = {}
                for v, w in edges:
                    prev = best.get(v)
                    if prev is None or w < prev:
                        best[v] = w
                if len(best) != len(edges):
                    edges = sorted(best.items())
                else:
                    edges = sorted(edges)
                self._adj[u] = edges
            m += len(self._adj[u])
        self._m = m
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    @property
    def max_edge_weight(self) -> float:
        """Largest edge weight seen (0.0 for an edgeless graph).

        ``n * max_edge_weight`` upper-bounds every simple-path length,
        which the iteratively bounding driver uses to cap ``τ``.
        """
        return self._max_weight

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return self._m

    def out_edges(self, u: int) -> Sequence[tuple[int, float]]:
        """The ``(v, weight)`` pairs of edges leaving ``u``."""
        return self._adj[u]

    def in_edges(self, u: int) -> Sequence[tuple[int, float]]:
        """The ``(v, weight)`` pairs such that edge ``v -> u`` exists.

        Builds and caches the reverse adjacency on first use.
        """
        return self.reverse_adjacency()[u]

    def out_degree(self, u: int) -> int:
        """Number of edges leaving ``u``."""
        return len(self._adj[u])

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v``.

        Raises
        ------
        GraphError
            If the edge does not exist.
        """
        for x, w in self._adj[u]:
            if x == v:
                return w
        raise GraphError(f"edge ({u}, {v}) does not exist")

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``u -> v`` exists."""
        return any(x == v for x, _ in self._adj[u])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over all edges as ``(u, v, weight)`` triples."""
        for u, edges in enumerate(self._adj):
            for v, w in edges:
                yield u, v, w

    def nodes(self) -> range:
        """The node ids, as a range."""
        return range(self._n)

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> Sequence[list[tuple[int, float]]]:
        """Raw adjacency rows, indexed by node (treat as read-only once
        frozen).  A list, except on a ``G_Q`` overlay (see
        :meth:`from_shared_rows`)."""
        return self._adj

    def reverse_adjacency(self) -> Sequence[list[tuple[int, float]]]:
        """Reverse adjacency lists: entry ``u`` holds ``(v, w)`` with
        edge ``v -> u`` of weight ``w`` in this graph.
        """
        if self._radj is None:
            radj: list[list[tuple[int, float]]] = [[] for _ in range(self._n)]
            for u, edges in enumerate(self._adj):
                for v, w in edges:
                    radj[v].append((u, w))
            self._radj = radj
        return self._radj

    @property
    def csr_cache(self):
        """Cached CSR snapshot set by :func:`repro.graph.csr.shared_csr`.

        ``None`` until a whole-graph scipy search or the shared-memory
        export touches this graph; only frozen graphs may carry one
        (mutation would invalidate it).
        """
        return self._csr

    @csr_cache.setter
    def csr_cache(self, snapshot) -> None:
        if not self._frozen:
            raise GraphError("only frozen graphs can cache a CSR snapshot")
        self._csr = snapshot

    def reversed_copy(self) -> "DiGraph":
        """A new frozen :class:`DiGraph` with every edge direction flipped."""
        rg = DiGraph(self._n)
        for u, edges in enumerate(self._adj):
            for v, w in edges:
                rg.add_edge(v, u, w)
        return rg.freeze()

    def path_weight(self, path: Sequence[int]) -> float:
        """Total weight of a node sequence; validates every hop.

        Raises
        ------
        GraphError
            If two consecutive nodes are not joined by an edge.
        """
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += self.edge_weight(u, v)
        return total

    def is_simple_path(self, path: Sequence[int]) -> bool:
        """Whether ``path`` is a valid simple path of this graph."""
        if not path:
            return False
        if len(set(path)) != len(path):
            return False
        return all(self.has_edge(u, v) for u, v in zip(path, path[1:]))

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "frozen" if self._frozen else "building"
        return f"DiGraph(n={self._n}, m={self._m}, {state})"

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise GraphError(f"node id {u} out of range [0, {self._n})")

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int, float]], bidirectional: bool = False
    ) -> "DiGraph":
        """Build a frozen graph from an iterable of ``(u, v, w)`` triples."""
        g = cls(n)
        add = g.add_bidirectional_edge if bidirectional else g.add_edge
        for u, v, w in edges:
            add(u, v, w)
        return g.freeze()

    @classmethod
    def from_shared_rows(
        cls,
        rows: Sequence[list[tuple[int, float]]],
        m: int,
        max_weight: float,
        reverse_rows: Sequence[list[tuple[int, float]]] | None = None,
        search_pools: dict[str, list] | None = None,
    ) -> "DiGraph":
        """Build a frozen graph directly from prepared adjacency rows.

        ``rows`` (and ``reverse_rows``) are adopted *without copying*
        and may be any integer-indexed sequence of rows, sharing row
        objects with another frozen graph: the virtual-node query
        transform passes :class:`~repro.graph.virtual.OverlayRows`, so
        a query costs ``O(|V_T|)``, not ``O(n)`` or ``O(m)``.  Rows
        must already be deduplicated and sorted — i.e. come from a
        frozen graph or be freshly built to that standard.
        ``search_pools`` adopts another graph's pools (the base graph's,
        for an overlay), so searches on both share their buffers.
        """
        g = cls.__new__(cls)
        g._n = len(rows)
        g._m = m
        g._adj = rows
        g._radj = reverse_rows
        g._frozen = True
        g._max_weight = max_weight
        g._csr = None
        g.search_pools = search_pools if search_pools is not None else {}
        return g


class ReversedView:
    """A zero-copy reversed view of a frozen :class:`DiGraph`.

    Exposes exactly the surface the search kernels need —
    ``adjacency``, ``edge_weight``, ``n``, ``m``, ``max_edge_weight``,
    ``reverse_adjacency()`` — with edge directions flipped.  Building
    one costs O(1) beyond the (cached) reverse adjacency of the
    underlying graph.
    """

    __slots__ = ("_g", "search_pools")

    def __init__(self, graph: "DiGraph") -> None:
        if not graph.frozen:
            raise GraphError("can only reverse-view a frozen graph")
        self._g = graph
        #: The underlying graph's search pools.
        self.search_pools = graph.search_pools

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._g.n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._g.m

    @property
    def underlying(self) -> "DiGraph":
        """The forward-orientation graph this view reverses."""
        return self._g

    @property
    def frozen(self) -> bool:
        """Always true (views only exist over frozen graphs)."""
        return True

    @property
    def max_edge_weight(self) -> float:
        """Largest edge weight (same as the underlying graph)."""
        return self._g.max_edge_weight

    @property
    def adjacency(self) -> Sequence[list[tuple[int, float]]]:
        """Out-edges of the view = in-edges of the underlying graph."""
        return self._g.reverse_adjacency()

    def out_edges(self, u: int) -> Sequence[tuple[int, float]]:
        """``(v, w)`` pairs of edges leaving ``u`` in the view."""
        return self._g.reverse_adjacency()[u]

    def reverse_adjacency(self) -> Sequence[list[tuple[int, float]]]:
        """In-edges of the view = out-edges of the underlying graph."""
        return self._g.adjacency


    def edge_weight(self, u: int, v: int) -> float:
        """Weight of view-edge ``u -> v`` (= ``v -> u`` underneath)."""
        return self._g.edge_weight(v, u)
