"""The oracle stack: every fast path vs. brute force and Yen.

On small instances the fuzzer can afford ground truth: the brute-force
enumerator (:mod:`repro.baselines.brute_force`) lists *every* simple
path, which pins down both the exact top-k length multiset and the set
of paths allowed to appear in an answer (ties at the k-th length mean
several answer sets are equally correct — any returned path must lie
within the tie-admissible set, and the length sequence must match
exactly).  Classic Yen (:mod:`repro.baselines.yen`), run on an
explicitly materialised ``G_Q`` transform graph, provides a second,
code-independent oracle for the same lengths.

:func:`check_against_oracles` runs one case through the full config
matrix — every registry algorithm × cached / uncached
prepared-category cache × sequential / ``solve_batch`` — and returns
human-readable failure messages (empty list = all agree).  Yen and the
enumerator share no code with the search substrate they check: both
read the graph's rows with their own loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.brute_force import enumerate_simple_paths
from repro.core.kpj import ALGORITHMS, KPJSolver
from repro.core.result import Path, QueryResult
from repro.fuzz.generators import FuzzCase, sequence_hash
from repro.server.service import BatchQuery
from repro.validation import validate_result

__all__ = ["RunConfig", "OracleExpectation", "check_against_oracles", "run_query"]

TOL = 1e-9

#: A result transformer planted by the self-check mode (None = honest).
Mutation = Callable[[list[Path], FuzzCase], list[Path]]


@dataclass(frozen=True)
class RunConfig:
    """One cell of the differential config matrix."""

    algorithm: str
    cached: bool
    batch: bool = False

    def describe(self) -> str:
        """Short label used in failure messages and repro files."""
        cache = "cached" if self.cached else "uncached"
        mode = "batch" if self.batch else "seq"
        return f"{self.algorithm}/{cache}/{mode}"

    def to_dict(self) -> dict:
        """JSON-ready representation for repro files."""
        return {
            "algorithm": self.algorithm,
            "cached": self.cached,
            "batch": self.batch,
        }


@dataclass(frozen=True)
class OracleExpectation:
    """Ground truth for one case, from exhaustive enumeration.

    ``lengths`` is the unique correct top-k length sequence;
    ``admissible`` is the set of node tuples allowed to appear in a
    correct answer (every path strictly shorter than the k-th length
    plus every path tied with it).
    """

    lengths: tuple[float, ...]
    admissible: frozenset[tuple[int, ...]]


def oracle_expectation(case: FuzzCase) -> OracleExpectation:
    """Enumerate the pooled simple-path universe and derive the answer.

    GKPJ pools the per-source enumerations (a path is identified by
    its node sequence, so paths from different sources never collide).
    """
    graph = case.graph()
    pool: list[Path] = []
    for source in set(case.sources):
        pool.extend(enumerate_simple_paths(graph, source, case.destinations))
    pool.sort()
    top = pool[: case.k]
    lengths = tuple(p.length for p in top)
    if not top:
        return OracleExpectation(lengths=(), admissible=frozenset())
    cutoff = top[-1].length + TOL
    admissible = frozenset(p.nodes for p in pool if p.length <= cutoff)
    return OracleExpectation(lengths=lengths, admissible=admissible)


def build_solver(case: FuzzCase, cached: bool) -> KPJSolver:
    """A solver wired for one cache cell of the matrix."""
    return KPJSolver(
        case.graph(),
        categories=case.category_index(),
        landmarks=min(2, case.n),
        seed=0,
        prepared_cache_size=8 if cached else 0,
    )


def run_query(
    solver: KPJSolver, case: FuzzCase, algorithm: str
) -> QueryResult:
    """Issue the case's query sequentially through the public API."""
    if case.kind == "ksp":
        return solver.ksp(
            case.sources[0], case.destinations[0], k=case.k,
            algorithm=algorithm, alpha=case.alpha,
        )
    if case.kind == "gkpj":
        return solver.join(
            sources=case.sources, destinations=case.destinations,
            k=case.k, algorithm=algorithm, alpha=case.alpha,
        )
    if case.category is not None:
        return solver.top_k(
            case.sources[0], category=case.category, k=case.k,
            algorithm=algorithm, alpha=case.alpha,
        )
    return solver.top_k(
        case.sources[0], destinations=case.destinations, k=case.k,
        algorithm=algorithm, alpha=case.alpha,
    )


def _check_answer(
    case: FuzzCase,
    expectation: OracleExpectation,
    config: RunConfig,
    paths: Sequence[Path],
) -> list[str]:
    """Compare one answer against ground truth; return violations."""
    failures: list[str] = []
    where = config.describe()
    got = tuple(p.length for p in paths)
    if len(got) != len(expectation.lengths):
        failures.append(
            f"{where}: returned {len(got)} paths, oracle says "
            f"{len(expectation.lengths)}"
        )
    for rank, (a, b) in enumerate(zip(got, expectation.lengths), start=1):
        if abs(a - b) > TOL:
            failures.append(
                f"{where}: rank {rank} length {a}, oracle says {b}"
            )
            break
    for path in paths:
        if path.nodes not in expectation.admissible:
            failures.append(
                f"{where}: path {path.nodes} (length {path.length}) is not "
                "an admissible top-k path"
            )
            break
    report = validate_result(
        case.graph(),
        QueryResult(paths=list(paths), algorithm=config.algorithm),
        case.sources,
        case.destinations,
        case.k,
    )
    failures.extend(f"{where}: {v}" for v in report.violations)
    return failures


def _yen_lengths(case: FuzzCase) -> tuple[float, ...]:
    """Independent Yen oracle on an explicitly materialised ``G_Q``.

    The virtual target (and, for GKPJ, virtual source) is added as a
    *real* node of a fresh graph — no shared overlay machinery — so a
    bug in the transform itself cannot hide from this check.
    """
    from repro.baselines.yen import yen_ksp
    from repro.graph.digraph import DiGraph

    extra = 2 if case.kind == "gkpj" else 1
    g = DiGraph(case.n + extra)
    for u, v, w in case.edges:
        g.add_edge(u, v, w)
    target = case.n
    for v in set(case.destinations):
        g.add_edge(v, target, 0.0)
    if case.kind == "gkpj":
        source = case.n + 1
        for s in set(case.sources):
            g.add_edge(source, s, 0.0)
    else:
        source = case.sources[0]
    g.freeze()
    return tuple(p.length for p in yen_ksp(g, source, target, case.k))


def check_against_oracles(
    case: FuzzCase,
    mutation: Mutation | None = None,
) -> list[str]:
    """Run the full differential matrix for one small case.

    Returns failure messages; an empty list means every registry
    algorithm, cached and uncached, sequentially and through
    ``solve_batch``, agreed exactly with the brute-force enumeration
    (and Yen agreed on the lengths).
    """
    failures: list[str] = []
    expectation = oracle_expectation(case)
    yen = _yen_lengths(case)
    if any(abs(a - b) > TOL for a, b in zip(yen, expectation.lengths)) or len(
        yen
    ) != len(expectation.lengths):
        # The two oracles disagreeing is its own (harness) bug class.
        failures.append(
            f"oracle disagreement: yen lengths {yen} vs brute force "
            f"{expectation.lengths}"
        )
    algorithms = sorted(ALGORITHMS)
    for cached in (True, False):
        solver = build_solver(case, cached)
        sequential: dict[str, tuple] = {}
        for algorithm in algorithms:
            result = run_query(solver, case, algorithm)
            paths = list(result.paths)
            if mutation is not None:
                paths = mutation(paths, case)
            config = RunConfig(algorithm, cached)
            failures.extend(_check_answer(case, expectation, config, paths))
            sequential[algorithm] = sequence_hash(paths)
        if case.kind == "gkpj":
            continue  # BatchQuery carries a single source
        queries = [
            BatchQuery(
                source=case.sources[0],
                category=case.category,
                destinations=(
                    None if case.category is not None else case.destinations
                ),
                k=case.k,
                algorithm=algorithm,
                alpha=case.alpha,
            )
            for algorithm in algorithms
        ]
        results = solver.solve_batch(queries)
        for algorithm, result in zip(algorithms, results):
            paths = list(result.paths)
            if mutation is not None:
                paths = mutation(paths, case)
            config = RunConfig(algorithm, cached, batch=True)
            failures.extend(_check_answer(case, expectation, config, paths))
            if sequence_hash(paths) != sequential[algorithm]:
                failures.append(
                    f"{config.describe()}: batch answer differs from the "
                    "sequential answer of the same config"
                )
    return failures
