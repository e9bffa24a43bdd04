"""Greedy minimisation of failing fuzz cases.

A raw failure from the harness can involve dozens of edges and a
multi-part query; the shrinker reduces it to something a human can
read in one glance while *preserving the failure* — after every
candidate mutation the full check is re-run and the mutation is kept
only if the case still fails.

Passes (each runs to fixpoint, the whole schedule repeats until no
pass makes progress or the check budget is spent):

1. drop the category-name indirection (query by explicit nodes);
2. shrink ``k`` toward 1;
3. drop destination nodes, then source nodes;
4. delete edges — delta-debugging style (halves, then quarters, …,
   then single edges);
5. compact away nodes that no longer appear anywhere (relabeling
   densely, so the repro has no ghost ids);
6. simplify weights (to ``0.0``, else to ``1.0``).

Everything is deterministic: the same failing case with the same
predicate always shrinks to the same repro.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import QueryError
from repro.fuzz.generators import FuzzCase, simplified

__all__ = ["shrink_case"]


def shrink_case(
    case: FuzzCase,
    still_fails: Callable[[FuzzCase], bool],
    max_checks: int = 400,
) -> FuzzCase:
    """Minimise ``case`` while ``still_fails`` keeps returning True.

    ``still_fails`` must be the exact failing check (same planted
    mutation, same config matrix) — the shrinker treats
    it as a black box.  ``max_checks`` bounds the number of predicate
    invocations; when the budget runs out the best case found so far
    is returned.
    """
    budget = [max_checks]

    def attempt(candidate: FuzzCase) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        try:
            return still_fails(candidate)
        except QueryError:
            return False  # candidate became structurally invalid

    def try_make(**changes) -> FuzzCase | None:
        try:
            return simplified(case, **changes)
        except QueryError:
            return None

    # Pass 1: drop the category indirection once, up front.
    plain = try_make()
    if plain is not None and plain != case and attempt(plain):
        case = plain

    progressed = True
    while progressed and budget[0] > 0:
        progressed = False

        # Pass 2: shrink k (try 1 directly, then decrement).
        for k in ({1, case.k // 2, case.k - 1} - {0, case.k}):
            candidate = try_make(k=k)
            if candidate is not None and attempt(candidate):
                case = candidate
                progressed = True
                break

        # Pass 3: drop destinations, then sources.
        for field in ("destinations", "sources"):
            nodes = getattr(case, field)
            i = 0
            while len(nodes) > 1 and i < len(nodes) and budget[0] > 0:
                candidate = try_make(**{field: nodes[:i] + nodes[i + 1:]})
                if candidate is not None and attempt(candidate):
                    case = candidate
                    nodes = getattr(case, field)
                    progressed = True
                else:
                    i += 1

        # Pass 4: delete edges, ddmin-style.
        chunk = max(1, len(case.edges) // 2)
        while chunk >= 1 and budget[0] > 0:
            i = 0
            while i < len(case.edges) and budget[0] > 0:
                edges = case.edges[:i] + case.edges[i + chunk:]
                candidate = try_make(edges=edges)
                if candidate is not None and attempt(candidate):
                    case = candidate
                    progressed = True
                else:
                    i += chunk
            chunk //= 2

        # Pass 5: compact unused node ids away.
        used = sorted(
            {u for u, _, _ in case.edges}
            | {v for _, v, _ in case.edges}
            | set(case.sources)
            | set(case.destinations)
        )
        if len(used) < case.n:
            relabel = {old: new for new, old in enumerate(used)}
            candidate = try_make(
                n=len(used),
                edges=tuple(
                    (relabel[u], relabel[v], w) for u, v, w in case.edges
                ),
                sources=tuple(sorted(relabel[s] for s in case.sources)),
                destinations=tuple(
                    sorted(relabel[t] for t in case.destinations)
                ),
            )
            if candidate is not None and attempt(candidate):
                case = candidate
                progressed = True

        # Pass 6: simplify weights.
        for i, (u, v, w) in enumerate(case.edges):
            if budget[0] <= 0:
                break
            for simpler in (0.0, 1.0):
                if w == simpler:
                    continue
                edges = (
                    case.edges[:i] + ((u, v, simpler),) + case.edges[i + 1:]
                )
                candidate = try_make(edges=edges)
                if candidate is not None and attempt(candidate):
                    case = candidate
                    progressed = True
                    break
    return case
