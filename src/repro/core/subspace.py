"""Search-space subspaces and their division (Section 4.1).

A subspace ``S = <P_{root,u}, X_u>`` is the set of all simple
root-to-goal paths that take ``P_{root,u}`` as a prefix and use none
of the excluded first hops ``X_u`` out of ``u``.  The entire search
space is ``<(root), {}>``.

When the shortest path ``P`` of a subspace is chosen as the next
result, :func:`divide` splits the subspace into disjoint children
(Definition 4.1 and the discussion around Fig. 3):

* one child per node ``v`` of ``P`` strictly between ``u`` and the
  goal — ``<P[:v], {next edge of P at v}>``;
* one child at ``u`` itself with the excluded set grown by ``P``'s
  first hop;
* the singleton ``{P}`` and the goal node produce no children (the
  goal has no outgoing edges in the transformed graph ``G_Q``).

The same machinery serves both orientations: the forward algorithms
search ``G_Q`` from ``s`` to the virtual target, the reverse-indexed
``IterBound-SPT_I`` searches the reversed ``G_Q`` from the virtual
target to ``s`` (its prefixes are the paper's ``P_{t,u}`` suffixes).
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

__all__ = ["Subspace", "divide", "compute_lower_bound"]

INF = float("inf")


class Subspace:
    """An immutable subspace ``<prefix, banned>`` with cached prefix weight."""

    __slots__ = ("prefix", "banned", "prefix_weight")

    def __init__(
        self, prefix: tuple[int, ...], banned: frozenset[int], prefix_weight: float
    ) -> None:
        self.prefix = prefix
        self.banned = banned
        self.prefix_weight = prefix_weight

    @property
    def head(self) -> int:
        """The deviation node ``u`` (last node of the prefix)."""
        return self.prefix[-1]

    @property
    def blocked(self) -> tuple[int, ...]:
        """Nodes a path of this subspace may not revisit (prefix minus ``u``)."""
        return self.prefix[:-1]

    @classmethod
    def entire(cls, root: int) -> "Subspace":
        """The whole search space ``S_0 = <(root), {}>``."""
        return cls((root,), frozenset(), 0.0)

    def child_at_head(self, banned_hop: int) -> "Subspace":
        """The child that keeps this prefix and bans one more first hop."""
        return Subspace(self.prefix, self.banned | {banned_hop}, self.prefix_weight)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Subspace(prefix={self.prefix}, banned={sorted(self.banned)}, "
            f"w={self.prefix_weight:g})"
        )


def divide(
    subspace: Subspace,
    path: tuple[int, ...],
    path_length: float,
    edge_weight: Callable[[int, int], float],
    tail_dists: Sequence[float] | None = None,
) -> Iterator[Subspace]:
    """Split ``subspace`` around its shortest path ``path``.

    ``path`` must extend ``subspace.prefix`` all the way to the goal;
    ``path_length`` is its total weight.  Yields the child subspaces
    (the singleton ``{path}`` is implicitly dropped).  ``edge_weight``
    supplies hop weights so child prefix weights accumulate without
    re-scanning adjacency.

    ``tail_dists``, when available, short-circuits even the per-hop
    weight lookups: entry ``i`` must be the prefix weight of
    ``path[: deviation + i + 1]`` (the flat ``TestLB`` kernel reports
    exactly this for the tail it settled — the same left-to-right
    float accumulation the loop below would redo, so child prefix
    weights are bit-identical either way).
    """
    deviation = len(subspace.prefix) - 1
    assert path[: deviation + 1] == subspace.prefix, "path must extend the prefix"
    yield subspace.child_at_head(path[deviation + 1])
    if tail_dists is not None:
        for j in range(deviation + 1, len(path) - 1):
            yield Subspace(
                path[: j + 1], frozenset((path[j + 1],)), tail_dists[j - deviation]
            )
        return
    weight = subspace.prefix_weight
    for j in range(deviation + 1, len(path) - 1):
        weight += edge_weight(path[j - 1], path[j])
        yield Subspace(path[: j + 1], frozenset((path[j + 1],)), weight)


def compute_lower_bound(
    adjacency: Sequence[Sequence[tuple[int, float]]],
    subspace: Subspace,
    heuristic: Callable[[int], float],
) -> float:
    """``CompLB`` (Alg. 3): one-hop lower bound of a subspace.

    Considers every valid outgoing edge ``(u, v)`` — ``v`` not on the
    prefix and not excluded — and returns the best
    ``w(prefix) + w(u, v) + lb(v, goal)``.  ``inf`` means the subspace
    is provably empty (no valid edge leaves ``u``).
    """
    u = subspace.head
    prefix = subspace.prefix
    banned = subspace.banned
    best = INF
    base = subspace.prefix_weight
    for v, w in adjacency[u]:
        if v in banned or v in prefix:
            continue
        estimate = base + w + heuristic(v)
        if estimate < best:
            best = estimate
    return best
