"""Virtual-node query transform (the paper's ``G_Q``).

Section 3 of the paper reduces a KPJ query to a KSP query by adding a
virtual destination node ``t`` and a zero-weight edge ``v -> t`` for
every destination ``v in V_T``; Section 6 symmetrically adds a virtual
source for GKPJ.  Every algorithm in this package runs on the
transformed graph, which keeps subspace bookkeeping uniform: banning
the edge ``(v, t)`` expresses "the path may pass *through* destination
``v`` but must not terminate there", which is exactly how a path
through one destination is allowed to continue to another.

:class:`QueryGraph` bundles the transformed graph together with the id
bookkeeping needed to strip virtual nodes off reported paths.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from numbers import Integral

from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph

__all__ = [
    "OverlayRows",
    "QueryGraph",
    "build_query_graph",
    "check_query_nodes",
    "is_int",
]


def is_int(value) -> bool:
    """Whether ``value`` is an integer (``numpy`` integers included,
    ``bool`` excluded)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_query_nodes(nodes: Sequence, n: int) -> None:
    """Raise :class:`QueryError` naming the first node of ``nodes``
    that is not an integer id in ``[0, n)``."""
    for node in nodes:
        if type(node) is not int and not is_int(node):  # fast path: plain int
            raise QueryError(f"query node {node!r} is not an integer")
        if not 0 <= node < n:
            raise QueryError(f"query node {node} out of range [0, {n})")


class OverlayRows(Sequence):
    """One orientation of ``G_Q``'s adjacency, overlaid on the base rows.

    Row ``u`` of a real node is the base graph's own row object unless
    the transform adds an edge there: a destination's forward row
    (``base_row + [(t, 0.0)]``) and, for GKPJ, a source's reverse row
    (``base_row + [(s', 0.0)]``, ``s'`` the virtual source).  Only
    those rows and the virtual nodes' rows are stored, so building an
    overlay costs ``O(|V_T| + |V_S|)`` and never copies the
    ``n``-entry row list.

    ``base``, ``destinations`` and ``sources`` (the virtual source's
    members, empty for KPJ) describe the transform.  ``base_rows`` (the
    base graph's row list in this orientation) and ``patched`` (the
    stored rows by node id) let a search loop read a row without a
    Python call: ``patched[u]`` when ``u in patched``, else ``base_rows[u]``
    (see :func:`repro.pathing.flat.row_source`).  ``kernel_arrays``
    caches the compiled settle loop's numpy view of a forward overlay
    (destination flags and virtual rows), built on first use by
    :mod:`repro.native`.
    """

    __slots__ = (
        "base", "destinations", "sources", "reverse", "base_rows", "patched",
        "kernel_arrays", "_get", "_size",
    )

    def __init__(
        self,
        base: DiGraph,
        destinations: tuple[int, ...],
        sources: tuple[int, ...] = (),
        reverse: bool = False,
    ) -> None:
        n = base.n
        target = n
        if reverse:
            base_rows = base.reverse_adjacency()
            patched = {target: [(v, 0.0) for v in destinations]}
            if sources:
                source = n + 1
                for v in sources:
                    patched[v] = base_rows[v] + [(source, 0.0)]
                patched[source] = []
        else:
            base_rows = base.adjacency
            patched = {v: base_rows[v] + [(target, 0.0)] for v in destinations}
            patched[target] = []  # the virtual target has no out-edges
            if sources:
                patched[n + 1] = [(v, 0.0) for v in sources]
        self.base = base
        self.destinations = destinations
        self.sources = sources
        self.reverse = reverse
        self.base_rows = base_rows
        self.patched = patched
        self.kernel_arrays = None
        self._get = patched.get
        self._size = n + (2 if sources else 1)

    def __getitem__(self, u: int) -> list[tuple[int, float]]:
        row = self._get(u)
        if row is not None:
            return row
        if u < 0:
            if u < -self._size:
                raise IndexError(u)
            return self[u + self._size]
        return self.base_rows[u]

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[list[tuple[int, float]]]:
        get = self._get
        for u, row in enumerate(self.base_rows):
            patched = get(u)
            yield row if patched is None else patched
        for u in range(len(self.base_rows), self._size):
            yield get(u)


@dataclass(frozen=True)
class QueryGraph:
    """A graph transformed for one KPJ/GKPJ query.

    Attributes
    ----------
    base:
        The original graph ``G``.
    graph:
        The transformed graph ``G_Q`` (base plus virtual nodes).
    source:
        Search source in ``graph`` — the real source for KPJ, the
        virtual source node for GKPJ.
    target:
        The virtual destination node id (always ``base.n``).
    destinations:
        The real destination nodes ``V_T`` (sorted).
    sources:
        The real source nodes ``V_S`` (a single node for KPJ).
    """

    base: DiGraph
    graph: DiGraph
    source: int
    target: int
    destinations: tuple[int, ...]
    sources: tuple[int, ...]

    @classmethod
    def overlay(
        cls, base: DiGraph, srcs: tuple[int, ...], dest: tuple[int, ...]
    ) -> "QueryGraph":
        """:func:`build_query_graph` without its checks: for a frozen
        ``base`` and endpoint tuples already checked, deduplicated and
        sorted (the solver's prepared destination sets)."""
        virtual_sources = srcs if len(srcs) > 1 else ()
        n = base.n
        # The transform is an O(|V_T| + |V_S|) *overlay*: every other
        # row is the base graph's own row object (see OverlayRows).
        # Building a query graph must stay cheap — the paper's
        # algorithms never touch the whole edge set per query.
        gq = DiGraph.from_shared_rows(
            OverlayRows(base, dest, virtual_sources),
            base.m + len(dest) + len(virtual_sources),
            base.max_edge_weight,
            OverlayRows(base, dest, virtual_sources, reverse=True),
            base.search_pools,
        )
        source = n + 1 if virtual_sources else srcs[0]
        return cls(base, gq, source, n, dest, srcs)

    @property
    def has_virtual_source(self) -> bool:
        """Whether this is a GKPJ transform (virtual source present)."""
        return self.source >= self.base.n

    def is_virtual(self, node: int) -> bool:
        """Whether ``node`` is one of the virtual endpoints."""
        return node >= self.base.n

    def reversed_graph(self):
        """Zero-copy reversed view of ``graph`` (for backward searches)."""
        from repro.graph.digraph import ReversedView

        return ReversedView(self.graph)

    def strip(self, path: Sequence[int]) -> tuple[int, ...]:
        """Remove virtual endpoints from a path found in ``graph``.

        The result is a path of ``base`` running from a real source to
        a real destination.
        """
        start = 1 if path and self.is_virtual(path[0]) else 0
        end = len(path) - 1 if path and self.is_virtual(path[-1]) else len(path)
        return tuple(path[start:end])


def build_query_graph(
    base: DiGraph,
    sources: Sequence[int],
    destinations: Sequence[int],
) -> QueryGraph:
    """Build ``G_Q`` for a query as an overlay on ``base``'s rows.

    Parameters
    ----------
    base:
        The frozen input graph ``G``.
    sources:
        One node for a KPJ/KSP query; several for GKPJ (a virtual
        source is then added).
    destinations:
        The destination set ``V_T`` (must be non-empty).  A virtual
        target node is always added, even for a single destination —
        this keeps the search code identical for KSP and KPJ.

    Raises
    ------
    QueryError
        On empty endpoint sets, or node ids that are not integers in
        ``[0, base.n)``.
    """
    if not base.frozen:
        raise QueryError("query graphs must be built from a frozen graph")
    if not sources:
        raise QueryError("query needs at least one source node")
    if not destinations:
        raise QueryError("query needs at least one destination node")
    check_query_nodes((*sources, *destinations), base.n)
    return QueryGraph.overlay(
        base, tuple(sorted(set(sources))), tuple(sorted(set(destinations)))
    )
