"""repro — Top-K Shortest Path Join (KPJ).

A production-quality reproduction of *"Efficiently Computing Top-K
Shortest Path Join"* (Chang, Lin, Qin, Yu, Pei — EDBT 2015): the
best-first / iteratively bounding framework with the ``SPT_P`` and
``SPT_I`` online indexes, the DA / DA-SPT deviation baselines, a
landmark (ALT) lower-bound index, synthetic road-network datasets,
and a benchmark harness regenerating every figure of the paper's
evaluation.

Quickstart
----------
>>> from repro import KPJSolver, road_network
>>> dataset = road_network("SJ")                       # doctest: +SKIP
>>> solver = KPJSolver(dataset.graph, dataset.categories)  # doctest: +SKIP
>>> result = solver.top_k(source=0, category="T2", k=5)    # doctest: +SKIP
"""

from repro.core.gkpj import gkpj
from repro.core.kpj import ALGORITHMS, DEFAULT_ALGORITHM, KPJSolver
from repro.core.result import Path, QueryResult
from repro.core.stats import SearchStats
from repro.validation import (
    validate_against_oracle,
    validate_instance,
    validate_result,
)
from repro.datasets.registry import available_datasets, road_network
from repro.exceptions import (
    DatasetError,
    GraphError,
    LandmarkError,
    QueryError,
    ReproError,
)
from repro.graph.builder import GraphBuilder
from repro.graph.categories import CategoryIndex
from repro.graph.digraph import DiGraph
from repro.landmarks.index import LandmarkIndex
from repro.obs.metrics import MetricsRegistry

__version__ = "1.0.0"

__all__ = [
    "gkpj",
    "validate_against_oracle",
    "validate_instance",
    "validate_result",
    "ALGORITHMS",
    "DEFAULT_ALGORITHM",
    "KPJSolver",
    "Path",
    "QueryResult",
    "SearchStats",
    "available_datasets",
    "road_network",
    "DatasetError",
    "GraphError",
    "LandmarkError",
    "QueryError",
    "ReproError",
    "GraphBuilder",
    "CategoryIndex",
    "DiGraph",
    "LandmarkIndex",
    "MetricsRegistry",
    "__version__",
]
