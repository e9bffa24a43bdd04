"""Answer checks, run outside every timed interval.

Each answer is checked structurally against the dataset graph (simple
path from the source into the destination set, every hop an edge,
length equal to the summed weights, non-decreasing lengths, ``k``
distinct paths), a seeded sample is checked against Yen's algorithm on
an explicitly materialised ``G_Q``, and a digest of the first
:data:`DIGEST_QUERIES` answers' length lists is compared with the
pinned value for the workload and seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

#: Answers covered by the pinned digest: the first this many queries
#: of the closed-loop stream, in stream order.
DIGEST_QUERIES = 32
#: Yen's algorithm checks this prefix of a sampled answer's lengths.
YEN_PREFIX = 8
#: Relative tolerance for comparing path lengths: the solver and the
#: checks may sum the same float weights in a different order.
REL_TOL = 1e-9

PINNED_DIGESTS = Path(__file__).with_name("digests.json")


class Tally:
    """Queries attempted and failed; a failure is an error, a refusal
    or a wrong answer."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.fail(reason)

    def fail(self, reason: str) -> None:
        """A wrong answer found by a check over already-counted
        queries (Yen sample, digest)."""
        self.failed = min(self.failed + 1, self.attempted)
        if len(self.reasons) < 10:
            self.reasons.append(reason)


class AnswerChecker:
    """Validates answers against one dataset graph."""

    def __init__(self, graph) -> None:
        # Own adjacency map, so the checks share no lookup code with
        # the solver; parallel edges keep their lightest weight.
        self.weights: list[dict[int, float]] = [{} for _ in range(graph.n)]
        for u, v, w in graph.edges():
            row = self.weights[u]
            if v not in row or w < row[v]:
                row[v] = w

    def check(self, query: dict, destinations, paths: list[tuple[float, tuple]]) -> str | None:
        """Return why ``paths`` is not a valid answer to ``query``, or
        ``None``.  ``paths`` is a list of ``(length, nodes)``."""
        source, k = query["source"], query["k"]
        if len(paths) != k:
            return f"{len(paths)} paths, expected {k}"
        previous = -math.inf
        seen: set[tuple] = set()
        for length, nodes in paths:
            if not nodes or nodes[0] != source:
                return f"path does not start at source {source}"
            if nodes[-1] not in destinations:
                return f"path ends at {nodes[-1]}, not a destination"
            if len(set(nodes)) != len(nodes):
                return "path is not simple"
            total = 0.0
            for u, v in zip(nodes, nodes[1:]):
                w = self.weights[u].get(v)
                if w is None:
                    return f"hop {u}->{v} is not an edge"
                total += w
            if not math.isclose(total, length, rel_tol=REL_TOL, abs_tol=REL_TOL):
                return f"length {length} != summed weights {total}"
            if length < previous - REL_TOL * abs(previous):
                return "lengths decrease"
            previous = length
            seen.add(tuple(nodes))
        if len(seen) != len(paths):
            return "duplicate paths"
        return None


def yen_mismatch(graph, query: dict, destinations, lengths: list[float]) -> str | None:
    """Compare an answer's first lengths with Yen's algorithm run on
    an explicitly materialised ``G_Q`` (base graph plus virtual
    target)."""
    from repro.baselines.yen import yen_ksp
    from repro.graph.virtual import build_query_graph

    k = min(query["k"], YEN_PREFIX)
    qg = build_query_graph(graph, (query["source"],), tuple(destinations))
    expected = [p.length for p in yen_ksp(qg.graph, qg.source, qg.target, k)]
    got = lengths[:k]
    if len(expected) != len(got) or not all(
        math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL) for a, b in zip(expected, got)
    ):
        return f"lengths {got} differ from Yen {expected}"
    return None


def length_digest(length_lists: list[list[float]]) -> str:
    """sha256 over per-query length lists, rounded so summation order
    does not change it."""
    text = "\n".join(",".join(f"{x:.6f}" for x in lengths) for lengths in length_lists)
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_digest(workload: str, size: str, seed: int) -> str | None:
    if size != "full" or not PINNED_DIGESTS.is_file():
        return None
    table = json.loads(PINNED_DIGESTS.read_text())
    return table.get(workload, {}).get(str(seed))


def oracle_checks(tally: Tally, graph, samples, digest_lists, workload: str, size: str, seed: int) -> dict:
    """Run the Yen sample and the digest comparison into ``tally``.

    ``samples`` holds ``(query, destinations, lengths)``;
    ``digest_lists`` the length lists of the first closed-loop
    queries, in stream order."""
    for query, destinations, lengths in samples:
        reason = yen_mismatch(graph, query, destinations, lengths)
        if reason is not None:
            tally.fail(f"yen: {reason}")
    digest = length_digest(digest_lists) if len(digest_lists) == DIGEST_QUERIES else None
    pinned = pinned_digest(workload, size, seed)
    if digest is not None and pinned is not None and digest != pinned:
        tally.fail(f"length digest {digest} != pinned {pinned}")
    return {"yen_checked": len(samples), "digest": digest, "digest_pinned": pinned}
