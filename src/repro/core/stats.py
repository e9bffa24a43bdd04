"""Instrumentation counters shared by all algorithms.

The paper's central efficiency claims are about *how much work* each
paradigm does — the number of shortest-path computations (Lemma 4.1),
the exploration area of lower-bound tests (Section 5), the cost of
building shortest-path trees.  :class:`SearchStats` records exactly
those quantities so tests can assert the lemmas and benchmarks can
report them next to wall-clock times.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["SearchStats", "WORK_PARITY_FIELDS"]

#: Counters expected to agree **exactly** across the dict and flat
#: kernels for any one query (the fuzz harness asserts this on the
#: pinned corpus).  Excluded by design: the per-substrate
#: ``*_kernel_calls`` dispatch counters (they record *which* kernel
#: ran).  ``nodes_settled`` is additionally excluded for ``da-spt``
#: only: its full-SPT build counts settles on the dict substrate but
#: not on the scipy array path (see
#: :func:`repro.pathing.spt.build_spt_to_target`).
WORK_PARITY_FIELDS: tuple[str, ...] = (
    "shortest_path_computations",
    "lower_bound_computations",
    "lb_tests",
    "lb_test_failures",
    "lb_test_hits",
    "lb_test_misses",
    "lb_test_retires",
    "nodes_settled",
    "edges_relaxed",
    "heap_pushes",
    "heap_pops",
    "spt_nodes",
    "subspaces_created",
    "subspaces_pruned",
    "prepared_cache_hits",
    "prepared_cache_misses",
)


@dataclass
class SearchStats:
    """Mutable counters threaded through the search kernels.

    Attributes
    ----------
    shortest_path_computations:
        Full constrained shortest-path searches (``CompSP`` calls, or
        candidate-path computations in the deviation paradigm).
    lower_bound_computations:
        ``CompLB`` evaluations (cheap, neighbour-only).
    lb_tests / lb_test_failures:
        ``TestLB`` invocations and how many returned "bound holds"
        (i.e. pruned without producing a path).
    lb_test_hits / lb_test_misses / lb_test_retires:
        Verdict tallies from the iteratively bounding driver: a *hit*
        found the subspace's shortest path within the current bound, a
        *retire* proved the subspace exhausted (or past the length
        limit), and a *miss* merely re-queued it at a larger ``τ``.
        Counted once per tested subspace, so they are kernel-parity
        counters.
    nodes_settled / edges_relaxed:
        Priority-queue pops with exact distances / successful edge
        relaxations, across every kernel of the query.
    heap_pushes / heap_pops:
        Priority-queue traffic of the *query-scoped* search kernels:
        the constrained bounded-A*/Dijkstra bodies (dict and flat
        alike) and the incremental ``SPT_I`` trees.  Includes
        lazy-deletion pops of stale entries.  Whole-graph
        preprocessing sweeps (landmark selection, full backward SPTs,
        scipy SSSP) and driver-level queues (the subspace
        priority queue, deviation candidate heaps) are *not* counted —
        they are either kernel-asymmetric by construction or not heap
        kernels at all.
    spt_nodes:
        Final size of the SPT index built for the query (full SPT for
        DA-SPT, ``SPT_P`` or ``SPT_I`` for the indexed variants).
    subspaces_created / subspaces_pruned:
        Subspaces produced by division / subspaces discarded without a
        shortest-path computation (empty or still unresolved when the
        k-th path was confirmed).
    dict_kernel_calls / flat_kernel_calls:
        Kernel dispatches per substrate — how many constrained
        searches / SPT builds ran on the dict arrangement or the flat
        CSR arrays (see :mod:`repro.pathing.kernels`).
    prepared_cache_hits / prepared_cache_misses:
        Whether this query's destination set was served from the
        solver's prepared-category cache (bounds + ``G_Q`` overlay
        reused) or had to be derived from scratch.
    """

    shortest_path_computations: int = 0
    lower_bound_computations: int = 0
    lb_tests: int = 0
    lb_test_failures: int = 0
    lb_test_hits: int = 0
    lb_test_misses: int = 0
    lb_test_retires: int = 0
    nodes_settled: int = 0
    edges_relaxed: int = 0
    heap_pushes: int = 0
    heap_pops: int = 0
    spt_nodes: int = 0
    subspaces_created: int = 0
    subspaces_pruned: int = 0
    dict_kernel_calls: int = 0
    flat_kernel_calls: int = 0
    prepared_cache_hits: int = 0
    prepared_cache_misses: int = 0

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Add another stats object into this one (returns self)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot, for reporting."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def nonzero(self) -> dict[str, int]:
        """Only the counters that recorded anything, field order kept.

        Reporting surfaces (``kpj ... --stats``) print this instead of
        the full snapshot so a dict-kernel query does not list
        ``flat_kernel_calls 0`` and vice versa.
        """
        return {name: value for name, value in self.as_dict().items() if value}

    def to_json(self) -> str:
        """Stable JSON encoding (sorted keys) of :meth:`as_dict`.

        Bench and regression artifacts persist stats with this instead
        of hand-rolling dict conversions; :meth:`from_json` inverts it.
        """
        import json

        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchStats":
        """Inverse of :meth:`to_json`.

        Unknown keys raise :class:`TypeError` (a stats artifact from a
        different schema version should fail loudly, not drop fields).
        """
        import json

        return cls(**{name: int(value) for name, value in json.loads(text).items()})
