"""Shared fixtures: canonical small graphs and helpers.

``paper_graph`` reconstructs a graph consistent with the paper's
running example (Fig. 1): nodes v1..v15, bidirectional edges, hotels
at v4/v6/v7, and the edge weights implied by Examples 2.1–5.3 (the
top-3 paths from v1 to "H" have lengths 5, 6, 7, with
P1 = (v1, v8, v7) and P2 = (v1, v3, v6)).
"""

from __future__ import annotations

import random

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.categories import CategoryIndex
from repro.graph.digraph import DiGraph

#: (u, v, weight) edges of the Fig.-1-style graph, bidirectional.
PAPER_EDGES = [
    ("v1", "v2", 1),
    ("v1", "v3", 3),
    ("v1", "v8", 2),
    ("v1", "v11", 1),
    ("v2", "v10", 8),
    ("v3", "v4", 5),
    ("v3", "v5", 2),
    ("v3", "v6", 3),
    ("v3", "v7", 4),
    ("v4", "v5", 10),
    ("v5", "v6", 2),
    ("v5", "v15", 1),
    ("v8", "v7", 3),
    ("v8", "v9", 1),
    ("v7", "v13", 10),
    ("v7", "v14", 10),
    ("v9", "v10", 1),
    ("v11", "v12", 1),
    ("v12", "v13", 1),
    ("v14", "v15", 1),
]

HOTELS = ("v4", "v6", "v7")

#: The search substrate every query runs on, by the name
#: ``KPJSolver.kernel`` and ``/status`` report.  Checks of a property
#: the substrate must hold are parametrized over it, so their ids name
#: the substrate they exercised.
KERNELS = ("flat",)


@pytest.fixture(scope="session")
def paper_built():
    """The Fig.-1-style graph with its label table."""
    builder = GraphBuilder(bidirectional=True)
    for u, v, w in PAPER_EDGES:
        builder.add_edge(u, v, float(w))
    return builder.build()


@pytest.fixture(scope="session")
def paper_graph(paper_built):
    """Just the frozen :class:`DiGraph` of the paper example."""
    return paper_built.graph


@pytest.fixture(scope="session")
def paper_categories(paper_built):
    """Category index with the hotel category "H" of the example."""
    hotels = [paper_built.node_id(name) for name in HOTELS]
    return CategoryIndex({"H": hotels})


@pytest.fixture(scope="session")
def line_graph():
    """0 - 1 - 2 - 3 - 4, bidirectional unit weights."""
    return DiGraph.from_edges(
        5, [(i, i + 1, 1.0) for i in range(4)], bidirectional=True
    )


@pytest.fixture(scope="session")
def diamond_graph():
    """Two parallel routes 0->3: through 1 (length 2) and 2 (length 3)."""
    g = DiGraph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 3, 1.0)
    g.add_edge(0, 2, 1.0)
    g.add_edge(2, 3, 2.0)
    return g.freeze()


def random_graph(
    rng: random.Random,
    min_nodes: int = 5,
    max_nodes: int = 14,
    weight_max: int = 9,
    bidirectional: bool = False,
) -> DiGraph:
    """A random simple digraph for cross-validation tests."""
    n = rng.randint(min_nodes, max_nodes)
    g = DiGraph(n)
    seen: set[tuple[int, int]] = set()
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        if bidirectional:
            seen.add((v, u))
            g.add_bidirectional_edge(u, v, float(rng.randint(1, weight_max)))
        else:
            g.add_edge(u, v, float(rng.randint(1, weight_max)))
    return g.freeze()
