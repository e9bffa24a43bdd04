"""Seeded inputs for the KPJ benchmark workloads.

The program under test only ever sees what this module generates:
query streams (closed loop, open loop, warm-up) and the open-loop
Poisson arrival offsets.  Every stream is drawn from its own
``random.Random`` seeded with ``"<seed>:<stream>"``, so the same seed
yields byte-identical inputs and the streams do not shift when one of
them draws more values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``categories`` set a category workload;
    ``set_sizes`` an ad-hoc destination-set workload."""

    name: str
    kind: str  # "library" (in-process KPJSolver) or "http" (kpj serve)
    dataset: str
    ks: tuple[int, ...]
    open_qps: float
    categories: tuple[str, ...] = ()
    set_sizes: tuple[int, ...] = ()


#: The full-size workloads; BENCHMARK.json records why each benchmarked
#: one exists.  The open-loop rate is about half of serve-http's
#: closed-loop throughput on a 2-CPU machine, and about a fifth of the
#: library workloads', whose heavy-tailed solves make a half-loaded
#: queue swing from run to run.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Both destination sets stay in the prepared cache: time goes
        # to the core search and the pathing kernels.
        Workload("hot-categories", "library", "COL", (16, 64, 128), 30.0,
                 categories=("T1", "T2")),
        # A fresh destination set per query: every query misses the
        # 32-entry cache and pays the Eq. (2) bounds and the overlay.
        Workload("adhoc-destinations", "library", "FLA", (4, 8, 16), 30.0,
                 set_sizes=(20, 100, 500)),
        # Small solves behind HTTP, JSON, pipes and pickling.
        Workload("serve-http", "http", "SJ", (2, 4, 8), 200.0,
                 categories=("T1", "T2", "T3")),
    )
}

#: Seconds-long versions on the smallest dataset, for the benchmark's
#: own tests.
TINY: dict[str, Workload] = {
    "hot-categories": Workload("hot-categories", "library", "SJ", (2, 4), 30.0,
                               categories=("T2", "T3")),
    "adhoc-destinations": Workload("adhoc-destinations", "library", "SJ", (2, 3),
                                   30.0, set_sizes=(3, 10)),
    "serve-http": WORKLOADS["serve-http"],
}


def workload(name: str, size: str = "full") -> Workload:
    table = TINY if size == "tiny" else WORKLOADS
    return table[name]


def queries(w: Workload, n_nodes: int, category_nodes, seed: int, stream: str) -> Iterator[dict]:
    """Endless query stream; each query is a JSON-ready dict in the
    shape ``POST /query`` accepts.  ``category_nodes`` maps each of the
    workload's categories to its node set.

    Every block of consecutive queries holds each (category or set
    size, k) pair once, in shuffled order, so runs of any length and
    seed share one traffic mix.  The source is drawn uniformly, but
    never from the query's destinations: from inside a one-node
    category there is a single simple path, so such a query would not
    ask for ``k`` paths."""
    rng = random.Random(f"{seed}:{stream}")
    pairs = [(kind, k) for kind in (w.categories or w.set_sizes) for k in w.ks]
    while True:
        block = pairs[:]
        rng.shuffle(block)
        for kind, k in block:
            if w.categories:
                query = {"category": kind}
                excluded = category_nodes[kind]
            else:
                query = {"destinations": rng.sample(range(n_nodes), kind)}
                excluded = set(query["destinations"])
            source = rng.randrange(n_nodes)
            while source in excluded:
                source = rng.randrange(n_nodes)
            query["source"] = source
            query["k"] = k
            yield query


def take(stream: Iterator[dict], n: int) -> list[dict]:
    return [next(stream) for _ in range(n)]


def arrival_offsets(rate: float, duration_s: float, seed: int) -> list[float]:
    """Poisson arrivals at ``rate`` per second over ``duration_s``,
    as offsets in seconds from the start of the open-loop phase."""
    rng = random.Random(f"{seed}:arrivals")
    offsets: list[float] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def encode(w: Workload, n_nodes: int, category_nodes, seed: int, n: int = 64) -> bytes:
    """Canonical bytes of a seed's inputs, for reproducibility checks."""
    doc = {
        stream: take(queries(w, n_nodes, category_nodes, seed, stream), n)
        for stream in ("warmup", "closed", "open")
    }
    doc["arrivals"] = arrival_offsets(w.open_qps, 5.0, seed)
    return json.dumps(doc, sort_keys=True).encode()
