"""The paper's contribution: best-first / iteratively bounding KPJ."""

from repro.core.best_first import best_first
from repro.core.gkpj import gkpj
from repro.core.iter_bound import iter_bound, iter_bound_search
from repro.core.kpj import ALGORITHMS, DEFAULT_ALGORITHM, KPJSolver, QueryContext
from repro.core.result import Path, QueryResult
from repro.core.spt_incremental import iter_bound_spti
from repro.core.spt_partial import SPTPHeuristic, iter_bound_sptp
from repro.core.stats import SearchStats
from repro.core.subspace import Subspace, compute_lower_bound, divide

__all__ = [
    "best_first",
    "gkpj",
    "iter_bound",
    "iter_bound_search",
    "ALGORITHMS",
    "DEFAULT_ALGORITHM",
    "KPJSolver",
    "QueryContext",
    "Path",
    "QueryResult",
    "iter_bound_spti",
    "SPTPHeuristic",
    "iter_bound_sptp",
    "SearchStats",
    "Subspace",
    "compute_lower_bound",
    "divide",
]
