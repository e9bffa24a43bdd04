"""Metamorphic invariants — correctness checks that need no oracle.

Brute-force enumeration stops being affordable past ~10 nodes, but
several *relations between answers* must hold at any scale.  Each
check below derives a transformed query (or a transformed graph) whose
answer is fully determined by the original answer, runs both, and
flags any disagreement:

* **top-k prefix** — the top-``k`` length sequence is a prefix of the
  top-``(k+Δ)`` sequence (the answer to a larger ``k`` never rewrites
  earlier ranks);
* **τ/α schedule invariance** — ``alpha`` only paces the iteratively
  bounding τ growth; the returned length sequence is identical for
  any growth factor;
* **``G_Q``-transform equivalence** — materialising the virtual
  target (and virtual source) as *real* nodes of a fresh graph and
  running classic Yen to the target yields the same lengths (KPJ
  really is KSP on ``G_Q``, Section 3 / Section 6 of the paper);
* **permutation invariance** — relabeling nodes by a random
  permutation permutes the paths but leaves the length sequence
  untouched (integer weights make the comparison exact);
* **weight-scaling invariance** — multiplying every weight by a
  power of two (exact in floating point) scales every length by the
  same factor and nothing else;
* **work parity** — the work counters of
  :data:`repro.core.stats.WORK_PARITY_FIELDS` (relaxations, heap
  pushes/pops, settled nodes, TestLB verdicts, …) agree *exactly*
  across the dict and flat kernels: the two substrates claim to run
  the same algorithm, so they must do the same work, not just return
  the same lengths;
* **observer parity** — attaching a metrics registry and a span
  tracer to the solver changes neither the returned paths nor the
  work counters: observing a query must not change the code it runs.

All checks use the public solver API, so they also cover the prepared
cache, the kernels, and the query-graph overlay on the way through.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.kpj import DEFAULT_ALGORITHM, KPJSolver
from repro.core.result import QueryResult
from repro.core.stats import WORK_PARITY_FIELDS
from repro.fuzz.generators import FuzzCase, sequence_hash, simplified
from repro.fuzz.oracles import TOL, _yen_lengths, build_solver, run_query
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer
from repro.pathing.kernels import KERNELS
from repro.validation import validate_result

__all__ = [
    "check_invariants",
    "work_parity_failures",
    "observer_parity_failures",
    "INVARIANTS",
]

#: Invariant names, in the order they run (for reporting).
INVARIANTS = (
    "structure",
    "prefix",
    "alpha",
    "gq_transform",
    "permutation",
    "weight_scaling",
    "work_parity",
    "observer_parity",
)

#: Counters that are kernel-asymmetric for ``da-spt`` only: its full
#: backward SPT counts settles on the dict substrate but the
#: scipy/compiled array builds have no per-node counter hook (see
#: :func:`repro.pathing.spt.build_spt_to_target`).
_DA_SPT_ASYMMETRIC = frozenset({"nodes_settled"})


def _parity_fields(algorithm: str) -> tuple[str, ...]:
    if algorithm == "da-spt":
        return tuple(f for f in WORK_PARITY_FIELDS if f not in _DA_SPT_ASYMMETRIC)
    return WORK_PARITY_FIELDS


def work_parity_failures(
    case: FuzzCase,
    algorithm: str = DEFAULT_ALGORITHM,
    kernels: Sequence[str] = KERNELS,
) -> list[str]:
    """Assert the cross-kernel work-counter parity for one case.

    Runs the query once per kernel and compares the
    :data:`~repro.core.stats.WORK_PARITY_FIELDS` snapshots pairwise
    against the first kernel's.  Returns one failure message per
    diverging counter (empty list = exact parity).
    """
    fields = _parity_fields(algorithm)
    baseline: dict[str, int] | None = None
    baseline_kernel = ""
    failures: list[str] = []
    for kernel in kernels:
        solver = build_solver(case, kernel, cached=True)
        result = run_query(solver, case, algorithm)
        snapshot = {f: getattr(result.stats, f) for f in fields}
        if baseline is None:
            baseline, baseline_kernel = snapshot, kernel
            continue
        for name, value in snapshot.items():
            if value != baseline[name]:
                failures.append(
                    f"work_parity/{algorithm}: {name} diverges — "
                    f"{baseline_kernel}={baseline[name]} {kernel}={value}"
                )
    return failures


def observer_parity_failures(
    case: FuzzCase,
    algorithm: str = DEFAULT_ALGORITHM,
    kernels: Sequence[str] = KERNELS,
) -> list[str]:
    """Assert that observing a query does not change what it does.

    Per kernel, solves the case on a bare solver and on one carrying a
    :class:`~repro.obs.metrics.MetricsRegistry` and a
    :class:`~repro.obs.tracing.SpanTracer`; the path sequences and the
    :data:`~repro.core.stats.WORK_PARITY_FIELDS` snapshots must be
    identical.  Returns one failure message per divergence.
    """
    failures: list[str] = []
    for kernel in kernels:
        where = f"observer_parity/{algorithm}/{kernel}"
        bare = run_query(build_solver(case, kernel, cached=True), case, algorithm)
        observed_solver = build_solver(case, kernel, cached=True)
        observed_solver.metrics = MetricsRegistry()
        observed_solver.tracer = SpanTracer()
        observed = run_query(observed_solver, case, algorithm)
        if sequence_hash(observed.paths) != sequence_hash(bare.paths):
            failures.append(f"{where}: paths differ with metrics and tracer attached")
        for name in WORK_PARITY_FIELDS:
            plain, watched = getattr(bare.stats, name), getattr(observed.stats, name)
            if plain != watched:
                failures.append(
                    f"{where}: {name} diverges — bare={plain} observed={watched}"
                )
    return failures

_K_DELTA = 3
_SCALE = 4.0  # power of two: exact in floating point
_ALPHAS = (1.02, 3.0)


def _lengths(result: QueryResult) -> tuple[float, ...]:
    return tuple(round(p.length, 9) for p in result.paths)


def _with_k(case: FuzzCase, k: int) -> FuzzCase:
    return simplified(case, k=k)


def _permuted(case: FuzzCase, rng: random.Random) -> FuzzCase:
    perm = list(range(case.n))
    rng.shuffle(perm)
    return simplified(
        case,
        edges=tuple((perm[u], perm[v], w) for u, v, w in case.edges),
        sources=tuple(sorted(perm[s] for s in case.sources)),
        destinations=tuple(sorted(perm[t] for t in case.destinations)),
    )


def _scaled(case: FuzzCase, factor: float) -> FuzzCase:
    return simplified(
        case,
        edges=tuple((u, v, w * factor) for u, v, w in case.edges),
    )


def _structure_failures(
    case: FuzzCase, solver: KPJSolver, result: QueryResult, where: str
) -> list[str]:
    report = validate_result(
        solver.graph, result, case.sources, case.destinations, case.k
    )
    return [f"{where}: {v}" for v in report.violations]


def check_invariants(
    case: FuzzCase,
    kernels: Sequence[str] = KERNELS,
    algorithm: str = DEFAULT_ALGORITHM,
) -> list[str]:
    """Run every metamorphic check for one (typically large) case.

    Returns failure messages; empty list = all invariants hold on
    every requested kernel.  ``algorithm`` picks the registry entry
    under test (the harness rotates it across cases).
    """
    failures: list[str] = []
    rng = random.Random(case.seed if case.seed is not None else 0)
    failures.extend(work_parity_failures(case, algorithm, kernels))
    failures.extend(observer_parity_failures(case, algorithm, kernels))
    base_lengths: tuple[float, ...] | None = None
    for kernel in kernels:
        where = f"invariant/{algorithm}/{kernel}"
        solver = build_solver(case, kernel, cached=True)
        base = run_query(solver, case, algorithm)
        failures.extend(_structure_failures(case, solver, base, where))
        lengths = _lengths(base)
        if base_lengths is None:
            base_lengths = lengths
        elif lengths != base_lengths:
            failures.append(
                f"{where}: kernels disagree — {lengths} vs {base_lengths}"
            )
            continue
        # Top-k prefix property: a larger k never rewrites earlier ranks.
        wider = run_query(solver, _with_k(case, case.k + _K_DELTA), algorithm)
        if _lengths(wider)[: len(lengths)] != lengths or len(wider.paths) < len(
            base.paths
        ):
            failures.append(
                f"{where}: top-{case.k} is not a prefix of "
                f"top-{case.k + _K_DELTA} ({lengths} vs {_lengths(wider)})"
            )
        # τ/α schedule invariance: alpha is a performance knob only.
        for alpha in _ALPHAS:
            varied = run_query(solver, simplified(case, alpha=alpha), algorithm)
            if _lengths(varied) != lengths:
                failures.append(
                    f"{where}: alpha={alpha} changed the answer "
                    f"({_lengths(varied)} vs {lengths})"
                )
                break
    if base_lengths is None:  # pragma: no cover - kernels is never empty
        return failures
    # G_Q-transform equivalence: independent Yen on the materialised
    # transform graph must reproduce the length sequence.
    yen = tuple(round(x, 9) for x in _yen_lengths(case))
    if yen != base_lengths:
        failures.append(
            f"invariant/gq_transform: yen-on-G_Q lengths {yen} "
            f"!= solver lengths {base_lengths}"
        )
    # Permutation invariance: relabeled instance, identical lengths.
    permuted = _permuted(case, rng)
    psolver = build_solver(permuted, kernels[0], cached=True)
    plengths = _lengths(run_query(psolver, permuted, algorithm))
    if plengths != base_lengths:
        failures.append(
            f"invariant/permutation: relabeled instance answered "
            f"{plengths} != {base_lengths}"
        )
    # Weight-scaling invariance: lengths scale by exactly the factor.
    scaled = _scaled(case, _SCALE)
    ssolver = build_solver(scaled, kernels[0], cached=True)
    slengths = _lengths(run_query(ssolver, scaled, algorithm))
    expected = tuple(round(x * _SCALE, 9) for x in base_lengths)
    if any(abs(a - b) > TOL * _SCALE for a, b in zip(slengths, expected)) or len(
        slengths
    ) != len(expected):
        failures.append(
            f"invariant/weight_scaling: x{_SCALE} weights answered "
            f"{slengths}, expected {expected}"
        )
    return failures
