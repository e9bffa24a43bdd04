"""The fuzzing driver: case loop, planted mutations, repro files.

:func:`run_fuzz` is the single entry point (the ``kpj fuzz`` CLI
subcommand is a thin wrapper): generate seeded cases, dispatch small
ones to the oracle stack and large ones to the metamorphic
invariants, shrink any failure, and write a replayable repro file.

:func:`self_check` is the harness testing itself: it plants each of
the :data:`MUTATIONS` — result corruptions modeled on real KSP bug
classes (a dropped deviation path, an off-by-one on the inclusive τ
cutoff, a mispriced path, a duplicated path, an unsorted answer) —
into the system-under-test side of the comparison and asserts the
harness flags every one of them while a mutation-free run stays
clean.  A fuzzer that cannot catch planted bugs is not evidence of
correctness; this mode is what makes the green run meaningful.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.result import Path
from repro.exceptions import QueryError
from repro.fuzz.generators import FuzzCase, generate_case
from repro.fuzz.invariants import check_invariants
from repro.fuzz.oracles import check_against_oracles
from repro.fuzz.shrink import shrink_case

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "MUTATIONS",
    "check_case",
    "replay_file",
    "run_fuzz",
    "self_check",
]

#: Cases at or below this node count get the exhaustive oracle stack;
#: larger ones get the metamorphic invariants.
ORACLE_MAX_NODES = 10

#: Every 4th case is a larger invariant-mode case.
_INVARIANT_STRIDE = 4
_INVARIANT_MIN, _INVARIANT_MAX = 20, 40

_REGISTRY_ROTATION = (
    "iter-bound-spti", "iter-bound", "da-spt", "best-first", "iter-bound-sptp",
)


# ----------------------------------------------------------------------
# Planted mutations (self-check mode)
# ----------------------------------------------------------------------
def _mut_drop_deviation(paths: list[Path], case: FuzzCase) -> list[Path]:
    """Lose the second-best path — a dropped deviation edge."""
    if len(paths) >= 2:
        return [paths[0]] + paths[2:]
    return paths


def _mut_cutoff_off_by_one(paths: list[Path], case: FuzzCase) -> list[Path]:
    """Drop the k-th path — an exclusive instead of inclusive τ cutoff."""
    if len(paths) == case.k:
        return paths[:-1]
    return paths


def _mut_length_drift(paths: list[Path], case: FuzzCase) -> list[Path]:
    """Misprice the best path by 1e-3 — a stale distance label."""
    if paths:
        first = paths[0]
        return [Path(length=first.length + 1e-3, nodes=first.nodes)] + paths[1:]
    return paths


def _mut_duplicate_path(paths: list[Path], case: FuzzCase) -> list[Path]:
    """Report the best path twice — broken pseudo-tree dedup."""
    if len(paths) >= 2:
        return paths[:-1] + [paths[0]]
    return paths


def _mut_unsorted(paths: list[Path], case: FuzzCase) -> list[Path]:
    """Emit paths out of length order — a broken result heap."""
    if len(paths) >= 2 and paths[0].length != paths[-1].length:
        return [paths[-1]] + paths[1:-1] + [paths[0]]
    return paths


#: Named planted bugs for :func:`self_check`.
MUTATIONS: dict[str, Callable[[list[Path], FuzzCase], list[Path]]] = {
    "drop-deviation": _mut_drop_deviation,
    "cutoff-off-by-one": _mut_cutoff_off_by_one,
    "length-drift": _mut_length_drift,
    "duplicate-path": _mut_duplicate_path,
    "unsorted": _mut_unsorted,
}


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class FuzzFailure:
    """One detected disagreement, with its (possibly shrunk) repro."""

    case: FuzzCase
    original: FuzzCase
    mode: str  # "oracle" | "invariant"
    messages: tuple[str, ...]
    repro_path: str | None = None

    def to_dict(self) -> dict:
        """The repro-file document (replayable via :func:`replay_file`)."""
        out = {
            "version": 1,
            "mode": self.mode,
            "failures": list(self.messages),
            "case": self.case.to_dict(),
        }
        if self.original != self.case:
            out["original_case"] = self.original.to_dict()
        return out


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` invocation."""

    seed: int
    cases_run: int = 0
    oracle_cases: int = 0
    invariant_cases: int = 0
    elapsed_s: float = 0.0
    failures: list[FuzzFailure] = field(default_factory=list)
    mutation: str | None = None

    @property
    def ok(self) -> bool:
        """True when no case produced a disagreement."""
        return not self.failures

    def summary(self) -> str:
        """Human-readable one-paragraph outcome."""
        planted = f", planted mutation {self.mutation!r}" if self.mutation else ""
        head = (
            f"fuzz seed={self.seed}: {self.cases_run} cases "
            f"({self.oracle_cases} oracle, {self.invariant_cases} invariant) "
            f"in {self.elapsed_s:.1f}s{planted} — "
        )
        if self.ok:
            return head + "all configurations agree"
        lines = [head + f"{len(self.failures)} FAILURE(S)"]
        for failure in self.failures:
            lines.append(f"  [{failure.mode}] {failure.case.describe()}")
            for message in failure.messages[:4]:
                lines.append(f"    - {message}")
            if failure.repro_path:
                lines.append(f"    repro: {failure.repro_path}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def check_case(
    case: FuzzCase,
    mutation: Callable[[list[Path], FuzzCase], list[Path]] | None = None,
    algorithm_hint: str = "iter-bound-spti",
) -> tuple[str, list[str]]:
    """Dispatch one case to the oracle stack or the invariant suite.

    Returns ``(mode, failure_messages)``; size decides the mode (the
    oracle is exhaustive, so only small cases can afford it).
    """
    if case.n <= ORACLE_MAX_NODES:
        return "oracle", check_against_oracles(case, mutation)
    return "invariant", check_invariants(case, algorithm_hint)


def _case_for_index(seed: int, index: int) -> FuzzCase:
    """The deterministic case for one (seed, index) slot."""
    case_seed = seed * 1_000_003 + index
    if index % _INVARIANT_STRIDE == _INVARIANT_STRIDE - 1:
        return generate_case(
            case_seed, min_nodes=_INVARIANT_MIN, max_nodes=_INVARIANT_MAX
        )
    return generate_case(case_seed)


def run_fuzz(
    seed: int = 0,
    cases: int = 200,
    time_budget: float | None = None,
    shrink: bool = True,
    corpus_dir: str | None = None,
    mutation: str | None = None,
    max_failures: int = 5,
    progress: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run the differential fuzzer.

    Parameters
    ----------
    seed, cases:
        ``cases`` deterministic instances derived from ``seed``.
    time_budget:
        Optional wall-clock cap in seconds; the loop stops early (the
        report says how many cases actually ran).
    shrink:
        Minimise failing cases before reporting them.
    corpus_dir:
        Where to write repro files for failures (created on demand);
        ``None`` keeps failures in memory only.
    mutation:
        Name of a planted :data:`MUTATIONS` entry (self-check mode);
        ``None`` for an honest run.
    max_failures:
        Stop after this many failing cases (shrinking is expensive;
        a systemic bug would otherwise fail every case).
    progress:
        Optional callback for periodic status lines.
    """
    mutate = None
    if mutation is not None:
        try:
            mutate = MUTATIONS[mutation]
        except KeyError:
            raise QueryError(
                f"unknown mutation {mutation!r}; choose one of: "
                f"{', '.join(sorted(MUTATIONS))}"
            ) from None
    report = FuzzReport(seed=seed, mutation=mutation)
    start = time.perf_counter()
    rotation = _REGISTRY_ROTATION
    for index in range(cases):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            break
        case = _case_for_index(seed, index)
        algorithm = rotation[index % len(rotation)]
        mode, messages = check_case(case, mutate, algorithm)
        report.cases_run += 1
        if mode == "oracle":
            report.oracle_cases += 1
        else:
            report.invariant_cases += 1
        if progress is not None and (index + 1) % 50 == 0:
            progress(
                f"  ... {index + 1}/{cases} cases, "
                f"{len(report.failures)} failures"
            )
        if not messages:
            continue
        original = case
        if shrink:
            def still_fails(candidate: FuzzCase) -> bool:
                return bool(check_case(candidate, mutate, algorithm)[1])

            case = shrink_case(case, still_fails)
            _, messages = check_case(case, mutate, algorithm)
            if not messages:  # over-shrunk (flaky check); keep the original
                case, messages = original, check_case(
                    original, mutate, algorithm
                )[1]
        failure = FuzzFailure(
            case=case, original=original, mode=mode, messages=tuple(messages)
        )
        if corpus_dir is not None:
            os.makedirs(corpus_dir, exist_ok=True)
            path = os.path.join(
                corpus_dir, f"repro-seed{seed}-case{index}.json"
            )
            with open(path, "w") as fh:
                json.dump(failure.to_dict(), fh, sort_keys=True, indent=2)
                fh.write("\n")
            failure.repro_path = path
        report.failures.append(failure)
        if len(report.failures) >= max_failures:
            break
    report.elapsed_s = time.perf_counter() - start
    return report


def replay_file(path: str) -> list[str]:
    """Re-run the check for a repro or corpus file; return failures.

    Accepts both harness repro documents (``{"case": {...}, ...}``)
    and bare corpus case documents (the :meth:`FuzzCase.to_dict`
    shape), so one replayer serves ``fuzz/corpus/`` and ad-hoc
    debugging alike.  An honest codebase returns ``[]``.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise QueryError(f"cannot read repro file {path!r}: {exc}") from None
    case = FuzzCase.from_dict(data["case"] if "case" in data else data)
    _, messages = check_case(case)
    return messages


def self_check(
    seed: int = 0,
    cases_per_mutation: int = 30,
) -> dict[str, bool]:
    """Prove the harness catches each planted bug class.

    For every :data:`MUTATIONS` entry, fuzz small oracle cases with
    the mutation planted and record whether at least one failure was
    detected; also run the same budget honestly and record that *no*
    failure fired (key ``"clean"``).  The first detected failure is
    additionally shrunk and re-checked, so the shrinker's
    preserve-the-failure contract is exercised on every self-check.
    """
    outcomes: dict[str, bool] = {}
    for name in sorted(MUTATIONS):
        report = run_fuzz(
            seed=seed,
            cases=cases_per_mutation,
            shrink=True,
            mutation=name,
            max_failures=1,
        )
        detected = not report.ok
        if detected:
            failure = report.failures[0]
            shrunk_messages = check_case(failure.case, MUTATIONS[name])[1]
            detected = bool(shrunk_messages)
        outcomes[name] = detected
    clean = run_fuzz(seed=seed, cases=cases_per_mutation, shrink=False)
    outcomes["clean"] = clean.ok
    return outcomes
