"""Landmark (ALT) lower-bound index.

Offline, the index stores one single-source distance array per
landmark ``w`` — ``δ(w, u)`` for every node ``u`` — built in
``O(|L| (m + n log n))`` time and ``O(|L| n)`` space exactly as the
paper specifies (Section 4.2, "Remarks & Time Complexity").

Online it answers three kinds of lower bounds, all derived from the
triangle inequality ``δ(w, u) + δ(u, v) >= δ(w, v)``:

* ``lb(u, v)      = max_w { δ(w, v) - δ(w, u) }``        (pairwise)
* ``lb(u, V_T)``  via **Eq. (1)**: ``min_{v in V_T} lb(u, v)`` —
  tight but ``O(|L| |V_T|)`` per evaluation;
* ``lb(u, V_T)``  via **Eq. (2)**: ``max_w { min_{v} δ(w, v) - δ(w, u) }``
  — the paper's choice: after one ``O(|L| |V_T|)`` pass per query it
  costs ``O(|L|)`` per node, paid per node the compiled settle loop
  touches, or vectorised over *all* nodes at once with numpy.

Disconnected pairs are handled conservatively: a landmark that cannot
reach ``u`` contributes no information (``-inf``), and a bound of
``+inf`` is produced only when it is provably correct (the landmark
reaches ``u`` but not the targets).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import native
from repro.exceptions import LandmarkError
from repro.graph.digraph import DiGraph
from repro.landmarks.selection import select_landmarks
from repro.pathing.dijkstra import single_source_distances

__all__ = [
    "LandmarkIndex",
    "TargetBounds",
    "LazySourceBounds",
    "ZERO_BOUNDS",
    "ZeroBounds",
]

INF = float("inf")


class TargetBounds:
    """Per-query lower bounds ``lb(u, V_T)`` for every node ``u``.

    Callable: ``bounds(u)`` returns the bound for node ``u`` and ``0``
    for the virtual nodes (ids ``n`` and ``n + 1``), so instances plug
    directly into the A* kernels as heuristics on the transformed
    graph ``G_Q``.  The vector lives in one zero-padded ``float64``
    buffer of ``n + 2`` entries.

    Built from a finished vector (``TargetBounds(values)``), the
    buffer is full at once.  Built by
    :meth:`LandmarkIndex.to_target_bounds` (``index`` and ``dmin``,
    the per-landmark minimum over ``V_T`` — Eq. (2)'s one
    ``O(|L| |V_T|)`` pass), every real entry starts as NaN and is
    computed on demand, as §4.2 of the paper prices it:

    * the compiled settle loop (:mod:`repro.native`) computes entry
      ``v`` in ``O(|L|)`` when it first touches ``v``
      (:meth:`native_args`), so a query pays for the nodes it visits,
      not for all ``n``;
    * :meth:`dense` and :meth:`__call__` — the interpreted searches —
      fill the whole buffer with one numpy pass on first use.

    Either way entry ``v`` is the same float, bit for bit, and a hot
    category reuses what earlier queries computed.
    """

    __slots__ = ("dmin", "_index", "_buffer", "_view", "_full", "_native")

    def __init__(
        self,
        values: np.ndarray | None = None,
        *,
        index: "LandmarkIndex | None" = None,
        dmin: np.ndarray | None = None,
    ) -> None:
        self.dmin = dmin
        self._index = index
        self._native = None
        if values is not None:
            n = len(values)
            buffer = np.zeros(n + 2)
            buffer[:n] = values
        else:
            n = index._dist.shape[1]
            buffer = np.full(n + 2, np.nan)
            buffer[n:] = 0.0
        self._buffer = buffer
        self._full = values is not None
        self._view = memoryview(buffer)

    def _fill(self) -> None:
        """Eq. (2) for every node at once: one subtraction and one
        max-reduction over the ``|L| x n`` matrix, into the buffer."""
        index = self._index
        dist = index._dist
        with np.errstate(invalid="ignore"):  # inf - inf -> nan, masked below
            diff = self.dmin[:, None] - dist
        if index._unreachable is not None:
            # A landmark that cannot reach u gives no information on
            # δ(u, ·).  This also covers every nan, since inf - inf
            # needs δ(w, u) = inf.
            diff[index._unreachable] = -INF
        out = self._buffer[: dist.shape[1]]
        np.max(diff, axis=0, out=out)
        del diff
        # -inf (no landmark informs u) and negative bounds become 0.
        np.maximum(out, 0.0, out=out)
        self._full = True

    def __call__(self, u: int) -> float:
        if not self._full:
            self._fill()
        return self._view[u]

    def dense(self, size: int) -> memoryview:
        """The padded buffer as a ``memoryview`` (``size`` may be at
        most ``n + 2``, the largest ``G_Q``), filled: the search engine
        indexes it in its inner loops instead of paying a Python call
        per relaxation, and entry ``u`` equals ``self(u)``.  Nothing is
        copied, so a prepared category holds one ``O(n)`` float64
        vector and no Python-float list.
        """
        if not self._full:
            self._fill()
        return self._view

    @property
    def nbytes(self) -> int:
        """Bytes held: the padded buffer and the landmark minima."""
        return self._buffer.nbytes + (0 if self.dmin is None else self.dmin.nbytes)

    def native_args(self, n: int) -> tuple:
        """``(memo, matrix, dmin, |L|)`` as cdata pointers for the
        compiled settle loop on a graph of ``n`` nodes, which fills a
        NaN entry on first touch (``matrix`` is NULL for a finished
        vector).  Cached.

        Raises
        ------
        ValueError
            If the bounds are for a graph of another size: the kernel
            indexes the buffer, and the matrix with stride ``n``,
            unchecked.
        """
        if len(self._buffer) != n + 2:
            raise ValueError(
                f"bounds cover {len(self._buffer) - 2} nodes, the graph has {n}"
            )
        if self._native is None:
            buffer = native.pointer("double[]", self._buffer)
            if self._index is None:
                self._native = (buffer, native.ffi.NULL, native.ffi.NULL, 0)
            else:
                self._native = (
                    buffer,
                    self._index.native_matrix(),
                    native.pointer("double[]", self.dmin),
                    len(self.dmin),
                )
        return self._native


class LazySourceBounds:
    """``lb(V_S, u)`` evaluated per node on demand, memoised.

    :meth:`LandmarkIndex.from_source_bounds` materialises the whole
    ``O(|L| n)`` bound vector up front — several full passes over the
    landmark distance matrix *per query* — but the incremental-SPT
    algorithm only ever consults the bound for the handful of nodes
    its one-hop ``CompLB`` finds outside the tree.  This proxy runs
    the same subtraction/masking/reduction on **one column** of the
    matrix per distinct node asked about, so each value is
    bit-identical to the eager vector's entry while a typical query
    touches a few dozen columns instead of all ``n``.

    With the compiled tier (:mod:`repro.native`) a miss is one C call
    over the same column (``kpj_eq1_source``), with the same
    semantics: ``-inf`` where both ``dmax[w]`` and ``δ(w, u)`` are
    inf, then the max, then a floor at 0.

    Algorithms that genuinely read the bound densely (the ``SPT_P``
    backward build) call :meth:`eager` to get the classic
    :class:`TargetBounds` vector instead.
    """

    __slots__ = (
        "_index", "_sources", "_dist", "_dmax", "_n", "_memo", "_eager", "_cdmax",
    )

    def __init__(self, index: "LandmarkIndex", sources: Sequence[int]) -> None:
        if not sources:
            raise LandmarkError("source set must be non-empty")
        self._index = index
        self._sources = tuple(sources)
        dist = index._dist
        self._dist = dist
        self._dmax: np.ndarray | None = None  # reduced on first call
        self._n = dist.shape[1]
        self._memo: dict[int, float] = {}
        self._eager: TargetBounds | None = None
        self._cdmax = None

    def __call__(self, u: int) -> float:
        if u >= self._n:
            return 0.0
        bound = self._memo.get(u)
        if bound is None:
            dmax = self._dmax
            if dmax is None:
                dmax = self._dmax = self._dist[:, list(self._sources)].max(axis=1)
            if native.HAVE_NATIVE and u >= 0:
                cdmax = self._cdmax
                if cdmax is None:
                    cdmax = self._cdmax = native.pointer("double[]", dmax)
                bound = native.lib.kpj_eq1_source(
                    self._index.native_matrix(), cdmax, len(dmax), self._n, u
                )
                self._memo[u] = bound
                return bound
            col = self._dist[:, u]
            with np.errstate(invalid="ignore"):  # inf - inf -> nan, masked below
                diff = col - dmax
            diff[np.isinf(dmax) & np.isinf(col)] = -INF  # every nan is one of these
            bound = float(diff.max())
            if bound < 0.0:
                bound = 0.0
            self._memo[u] = bound
        return bound

    def eager(self) -> TargetBounds:
        """The full :meth:`LandmarkIndex.from_source_bounds` vector, cached."""
        if self._eager is None:
            self._eager = self._index.from_source_bounds(self._sources)
        return self._eager


class ZeroBounds:
    """The trivial all-zero bound — the "no landmark" (NL) variant.

    With it, every A* in the package degenerates to Dijkstra, exactly
    as Section 6 of the paper prescribes for graphs without landmarks.
    """

    def __call__(self, u: int) -> float:
        return 0.0

    def dense(self, size: int) -> None:
        """``None``: the search kernels' zero heuristic, ``estimate = g``."""
        return None

    def native_args(self, n: int) -> tuple:
        """The compiled settle loop's zero key term: no memo, no matrix."""
        return (native.ffi.NULL, native.ffi.NULL, native.ffi.NULL, 0)


ZERO_BOUNDS = ZeroBounds()


class LandmarkIndex:
    """Precomputed from-landmark distances and the bounds they induce."""

    def __init__(self, graph: DiGraph, landmarks: Sequence[int], dist: np.ndarray) -> None:
        self.graph = graph
        self.landmarks = tuple(landmarks)
        # shape (|L|, n); δ(landmark_i, u), row-major: the compiled
        # kernels read column u with stride n.
        self._dist = np.ascontiguousarray(dist, dtype=np.float64)
        # The (landmark, node) pairs with δ(w, u) = inf, or None when
        # every landmark reaches every node (strongly connected graphs).
        unreachable = np.isinf(self._dist)
        self._unreachable = unreachable if unreachable.any() else None
        self._cdist = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DiGraph,
        num_landmarks: int = 16,
        strategy: str = "farthest",
        seed: int = 0,
    ) -> "LandmarkIndex":
        """Select landmarks and run one Dijkstra per landmark.

        ``num_landmarks=16`` is the paper's default (Fig. 6(a) shows it
        as the sweet spot on CAL).  The ``|L|`` offline runs are
        whole-graph sweeps (scipy where it imports).
        """
        exported = graph.csr_cache
        landmarks = select_landmarks(graph, num_landmarks, strategy, seed)
        dist = np.empty((len(landmarks), graph.n), dtype=np.float64)
        for i, w in enumerate(landmarks):
            dist[i, :] = single_source_distances(graph, w)
        if exported is None and graph.csr_cache is not None and not native.HAVE_NATIVE:
            # The CSR export scipy just swept was made for this build
            # alone: without the compiled tier, whose settle loop runs
            # over it, a solver whose queries run no whole-graph sweep
            # would hold it for nothing (about 3 MB on FLA), so the
            # graph's cache is left as it was found.
            graph.csr_cache = None
        return cls(graph, landmarks, dist)

    @property
    def size(self) -> int:
        """Number of landmarks ``|L|``."""
        return len(self.landmarks)

    @property
    def nbytes(self) -> int:
        """Bytes of the ``|L| x n`` distance matrix, the index's footprint."""
        return self._dist.nbytes

    def native_matrix(self):
        """The distance matrix as a cdata pointer for the compiled
        kernels (:mod:`repro.native`), cached."""
        if self._cdist is None:
            self._cdist = native.pointer("double[]", self._dist)
        return self._cdist

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def distance_bound(self, u: int, v: int) -> float:
        """Pairwise lower bound ``lb(u, v) <= δ(u, v)``."""
        du = self._dist[:, u]
        dv = self._dist[:, v]
        finite = np.isfinite(du)
        if not finite.any():
            return 0.0
        diff = dv[finite] - du[finite]
        best = float(np.max(diff))
        if best < 0.0:
            return 0.0
        return best

    def to_target_bounds(self, targets: Sequence[int]) -> TargetBounds:
        """Eq. (2): the bounds ``lb(u, V_T)``, computed on demand.

        One ``O(|L| |V_T|)`` reduction computes each landmark's
        distance to the virtual target (``min_{v in V_T} δ(w, v)``) —
        the per-query initialisation the paper describes at the start
        of Section 4.2's remarks.  Each node's bound then costs
        ``O(|L|)`` when a search first needs it, or one vectorised pass
        over the ``|L| x n`` matrix gives them all (see
        :class:`TargetBounds`).
        """
        if not targets:
            raise LandmarkError("target set must be non-empty")
        dmin = self._dist[:, list(targets)].min(axis=1)  # δ(w, t) per landmark
        return TargetBounds(index=self, dmin=dmin)

    def to_target_bound_eq1(self, u: int, targets: Sequence[int]) -> float:
        """Eq. (1): ``min_{v in V_T} max_w { δ(w, v) - δ(w, u) }``.

        Tighter than Eq. (2) but ``O(|L| |V_T|)`` per call — kept for
        the ablation benchmark comparing the two bounds.
        """
        if not targets:
            raise LandmarkError("target set must be non-empty")
        du = self._dist[:, u]
        finite = np.isfinite(du)
        if not finite.any():
            return 0.0
        with np.errstate(invalid="ignore"):
            sub = self._dist[np.ix_(finite, list(targets))] - du[finite, None]
        sub[np.isnan(sub)] = -INF
        per_target = sub.max(axis=0)  # lb(u, v) for each target v
        bound = float(per_target.min())
        if bound < 0.0 or np.isneginf(bound):
            return 0.0
        return bound

    def from_source_bounds(self, sources: Sequence[int]) -> TargetBounds:
        """Vector of lower bounds ``lb(V_S, u) <= min_s δ(s, u)``.

        Used by the *backward* searches (Alg. 6's priority key and the
        reverse-orientation ``IterBound-SPT_I``), which need to bound
        the distance *from* the source side *to* an explored node.
        Derivation: ``δ(w, u) <= δ(w, s) + δ(s, u)`` gives
        ``min_s δ(s, u) >= δ(w, u) - max_s δ(w, s)``.
        """
        if not sources:
            raise LandmarkError("source set must be non-empty")
        dmax = self._dist[:, list(sources)].max(axis=1)
        with np.errstate(invalid="ignore"):  # inf - inf -> nan, masked below
            diff = self._dist - dmax[:, None]
        if self._unreachable is not None:
            # Every nan is an inf - inf pair, i.e. one of these.
            diff[np.isinf(dmax)[:, None] & self._unreachable] = -INF
        bounds = diff.max(axis=0)
        np.maximum(bounds, 0.0, out=bounds)
        return TargetBounds(bounds)

    def lazy_source_bounds(self, sources: Sequence[int]) -> LazySourceBounds:
        """A :class:`LazySourceBounds` proxy over this index.

        Same values as :meth:`from_source_bounds`, computed per node
        on first use — the right trade for algorithms that consult
        the source bound sparsely (``CompLB-SPT_I``'s out-of-tree
        fallback).
        """
        return LazySourceBounds(self, sources)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the index (landmark ids + distance matrix) to ``.npz``.

        The offline landmark build is the expensive step on large
        graphs — ``|L|`` full Dijkstra runs — so production deployments
        build once and reload per process.
        """
        np.savez_compressed(
            path,
            landmarks=np.asarray(self.landmarks, dtype=np.int64),
            dist=self._dist,
            n=np.asarray([self.graph.n], dtype=np.int64),
        )

    @classmethod
    def load(cls, path, graph: DiGraph) -> "LandmarkIndex":
        """Load an index saved by :meth:`save` for the *same* graph.

        Raises
        ------
        LandmarkError
            If the snapshot's node count does not match ``graph`` —
            bounds from a different graph would be silently wrong.
        """
        with np.load(path, allow_pickle=False) as data:
            n = int(data["n"][0])
            if n != graph.n:
                raise LandmarkError(
                    f"index snapshot is for a graph with {n} nodes, "
                    f"got one with {graph.n}"
                )
            landmarks = tuple(int(x) for x in data["landmarks"])
            dist = np.array(data["dist"])
        return cls(graph, landmarks, dist)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LandmarkIndex(|L|={self.size}, n={self.graph.n})"
