"""Seeded instance generators for the differential fuzzer.

A fuzz *case* bundles everything one differential check needs: a graph
specification (node count + edge list, kept as data so it can be
serialised, shrunk, and replayed), a category labeling, and one
KPJ/KSP/GKPJ query.  Cases are produced from a ``random.Random`` —
the same seed always yields the same case.

Beyond the uniform random digraph, the generator rotates through
*targeted shapes* chosen to hit historically bug-prone structure:

``dag``
    acyclic graphs (deviation search never revisits a subspace);
``near_clique``
    dense graphs where the number of simple paths explodes and the
    inclusive τ cutoff sees many ties;
``zero_weight``
    a fraction of zero-weight edges (ties everywhere, zero-length
    detours, τ growth with no progress);
``parallel``
    duplicate ``(u, v)`` edges with different weights (collapsed to
    the minimum on :meth:`~repro.graph.digraph.DiGraph.freeze` —
    the answer must only ever use the lightest copy);
``disconnected``
    two components with the query possibly straddling them (empty or
    truncated answers);
``grid``
    a small road-like grid (the shape the paper's datasets have).

Category labelings always include decoy categories — among them a
singleton and an empty one — so index construction and resolution see
the degenerate sizes, not just the queried set.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from repro.exceptions import QueryError
from repro.graph.categories import CategoryIndex
from repro.graph.digraph import DiGraph
from repro.validation import validate_instance

__all__ = ["FuzzCase", "generate_case", "CASE_SHAPES"]


@dataclass(frozen=True)
class FuzzCase:
    """One serialisable fuzz instance: graph spec + labeling + query.

    The graph is kept as ``(n, edges)`` data rather than a built
    :class:`DiGraph` so the case can be written to a repro file,
    mutated by the shrinker, and rebuilt identically on replay.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    kind: str  # "kpj" | "ksp" | "gkpj"
    sources: tuple[int, ...]
    destinations: tuple[int, ...]
    k: int
    alpha: float = 1.1
    shape: str = "random"
    categories: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    category: str | None = None  # query by name instead of explicit nodes
    seed: int | None = None  # generator seed, for provenance only

    def __post_init__(self) -> None:
        validate_instance(
            self.n, self.edges, self.sources, self.destinations, self.k,
            allow_parallel_edges=True,
        )
        if self.kind not in ("kpj", "ksp", "gkpj"):
            raise QueryError(f"unknown query kind {self.kind!r}")
        if self.kind in ("kpj", "ksp") and len(self.sources) != 1:
            raise QueryError(f"{self.kind} query needs exactly one source")
        if self.kind == "ksp" and len(self.destinations) != 1:
            raise QueryError("ksp query needs exactly one destination")
        if self.category is not None and (
            self.category not in self.categories
            or tuple(self.categories[self.category]) != self.destinations
        ):
            raise QueryError(
                f"category {self.category!r} does not label the destinations"
            )

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def graph(self) -> DiGraph:
        """Build the frozen :class:`DiGraph` this case describes."""
        return DiGraph.from_edges(self.n, self.edges)

    def category_index(self) -> CategoryIndex:
        """The case's labeling as a :class:`CategoryIndex`.

        The queried destination set always appears under the name
        ``"T"`` (or :attr:`category` when set), alongside any decoy
        categories the generator added.
        """
        members = {name: nodes for name, nodes in self.categories.items()}
        members.setdefault(self.category or "T", self.destinations)
        return CategoryIndex(members)

    # ------------------------------------------------------------------
    # Serialisation (repro files, corpus)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation; :meth:`from_dict` inverts it."""
        out = {
            "n": self.n,
            "edges": [[u, v, w] for u, v, w in self.edges],
            "kind": self.kind,
            "sources": list(self.sources),
            "destinations": list(self.destinations),
            "k": self.k,
            "alpha": self.alpha,
            "shape": self.shape,
        }
        if self.categories:
            out["categories"] = {
                name: list(nodes) for name, nodes in sorted(self.categories.items())
            }
        if self.category is not None:
            out["category"] = self.category
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "FuzzCase":
        """Rebuild a case from :meth:`to_dict` output (validates it)."""
        try:
            return cls(
                n=int(data["n"]),
                edges=tuple(
                    (int(u), int(v), float(w)) for u, v, w in data["edges"]
                ),
                kind=str(data["kind"]),
                sources=tuple(int(s) for s in data["sources"]),
                destinations=tuple(int(t) for t in data["destinations"]),
                k=int(data["k"]),
                alpha=float(data.get("alpha", 1.1)),
                shape=str(data.get("shape", "random")),
                categories={
                    str(name): tuple(int(v) for v in nodes)
                    for name, nodes in dict(data.get("categories", {})).items()
                },
                category=data.get("category"),
                seed=data.get("seed"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"malformed fuzz case: {exc}") from None

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys, stable across runs)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        """Parse :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise QueryError(f"malformed fuzz case JSON: {exc}") from None
        return cls.from_dict(data)

    def describe(self) -> str:
        """One-line summary used in failure messages and CLI output."""
        return (
            f"{self.kind} n={self.n} m={len(self.edges)} shape={self.shape} "
            f"S={list(self.sources)} T={list(self.destinations)} k={self.k}"
        )


# ----------------------------------------------------------------------
# Edge-set shapes
# ----------------------------------------------------------------------
def _weight(rng: random.Random, zero_prob: float = 0.1) -> float:
    """A small non-negative integer weight (ties are common on purpose)."""
    if rng.random() < zero_prob:
        return 0.0
    return float(rng.randint(1, 9))


def _random_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Uniform random digraph with ~1x–3x n edges."""
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = rng.randint(min(n, len(possible)), min(3 * n, len(possible)))
    pairs = rng.sample(possible, m)
    return [(u, v, _weight(rng)) for u, v in pairs]


def _dag_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Random DAG: edges only go from lower to higher rank."""
    order = list(range(n))
    rng.shuffle(order)
    rank = {node: i for i, node in enumerate(order)}
    possible = [(u, v) for u in range(n) for v in range(n) if rank[u] < rank[v]]
    m = rng.randint(min(n, len(possible)), min(3 * n, len(possible)))
    pairs = rng.sample(possible, m)
    return [(u, v, _weight(rng)) for u, v in pairs]


def _near_clique_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Almost-complete digraph (each possible edge kept with prob 0.8)."""
    return [
        (u, v, _weight(rng))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.8
    ]


def _zero_weight_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Random digraph where roughly half the edges weigh zero."""
    return [
        (u, v, 0.0 if rng.random() < 0.5 else w)
        for u, v, w in _random_edges(rng, n)
    ]


def _parallel_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Random digraph plus duplicate (u, v) copies with other weights."""
    edges = _random_edges(rng, n)
    for u, v, _ in rng.sample(edges, min(len(edges), max(1, n // 2))):
        edges.append((u, v, _weight(rng)))
    return edges


def _disconnected_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Two islands with no edges between them."""
    cut = rng.randint(1, n - 1)
    left = list(range(cut))
    right = list(range(cut, n))
    edges: list[tuple[int, int, float]] = []
    for block in (left, right):
        if len(block) < 2:
            continue
        possible = [(u, v) for u in block for v in block if u != v]
        m = rng.randint(min(len(block), len(possible)), min(3 * len(block), len(possible)))
        edges.extend((u, v, _weight(rng)) for u, v in rng.sample(possible, m))
    return edges


def _grid_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """A bidirectional rows×cols grid over the first rows*cols nodes."""
    cols = max(2, int(n**0.5))
    rows = max(2, n // cols)
    edges: list[tuple[int, int, float]] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for v in ((u + 1) if c + 1 < cols else None,
                      (u + cols) if r + 1 < rows else None):
                if v is None:
                    continue
                w = _weight(rng, zero_prob=0.0)
                edges.append((u, v, w))
                edges.append((v, u, w))
    return edges


#: Shape name → edge generator; the fuzzer rotates through these.
CASE_SHAPES: dict[str, Callable[[random.Random, int], list[tuple[int, int, float]]]] = {
    "random": _random_edges,
    "dag": _dag_edges,
    "near_clique": _near_clique_edges,
    "zero_weight": _zero_weight_edges,
    "parallel": _parallel_edges,
    "disconnected": _disconnected_edges,
    "grid": _grid_edges,
}


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
def _pick_categories(
    rng: random.Random, n: int, destinations: tuple[int, ...]
) -> tuple[dict[str, tuple[int, ...]], str | None]:
    """A labeling containing the destination set plus degenerate decoys."""
    categories: dict[str, tuple[int, ...]] = {}
    use_name = rng.random() < 0.5
    name = "T" if use_name else None
    if use_name:
        categories["T"] = destinations
    # Decoys: one singleton, one empty, one random blob.
    categories["singleton"] = (rng.randrange(n),)
    categories["empty"] = ()
    blob = rng.sample(range(n), rng.randint(1, n))
    categories["blob"] = tuple(sorted(blob))
    return categories, name


def generate_case(
    seed: int,
    min_nodes: int = 4,
    max_nodes: int = 9,
    shape: str | None = None,
) -> FuzzCase:
    """Generate one deterministic fuzz case from an integer seed.

    ``shape=None`` rotates through :data:`CASE_SHAPES` by seed;
    ``min_nodes``/``max_nodes`` bound the graph size (keep the default
    for oracle-checked cases; raise it for invariant-only cases).
    """
    rng = random.Random(seed)
    names = sorted(CASE_SHAPES)
    chosen = shape if shape is not None else names[seed % len(names)]
    try:
        make_edges = CASE_SHAPES[chosen]
    except KeyError:
        raise QueryError(
            f"unknown case shape {chosen!r}; choose one of: {', '.join(names)}"
        ) from None
    n = rng.randint(min_nodes, max_nodes)
    edges = make_edges(rng, n)
    kind = rng.choices(("kpj", "ksp", "gkpj"), weights=(5, 2, 2))[0]
    if kind == "ksp":
        destinations: tuple[int, ...] = (rng.randrange(n),)
    else:
        count = rng.randint(1, max(1, min(3, n - 1)))
        destinations = tuple(sorted(rng.sample(range(n), count)))
    if kind == "gkpj":
        count = rng.randint(2, max(2, min(3, n)))
        sources = tuple(sorted(rng.sample(range(n), count)))
    else:
        sources = (rng.randrange(n),)
    k = rng.randint(1, 6)
    alpha = rng.choice((1.05, 1.1, 1.5, 2.0))
    categories: dict[str, tuple[int, ...]] = {}
    category = None
    if kind == "kpj":
        categories, category = _pick_categories(rng, n, destinations)
    return FuzzCase(
        n=n,
        edges=tuple(edges),
        kind=kind,
        sources=sources,
        destinations=destinations,
        k=k,
        alpha=alpha,
        shape=chosen,
        categories=categories,
        category=category,
        seed=seed,
    )


def simplified(case: FuzzCase, **changes) -> FuzzCase:
    """A copy of ``case`` with fields replaced (shrinker helper).

    Any category-name indirection is dropped — shrunk cases always
    query by explicit destinations, so the labeling never constrains a
    shrinking step.
    """
    base = replace(case, categories={}, category=None, seed=case.seed)
    return replace(base, **changes)


def sequence_hash(paths: Sequence) -> tuple:
    """Hashable fingerprint of an answer (lengths + node tuples)."""
    return tuple((round(p.length, 9), tuple(p.nodes)) for p in paths)
