"""Paths and work of the seed corpus, pinned across commits.

``fuzz/corpus_pins.json`` records, for every committed corpus case and
every registry algorithm, a digest of the answer's
:func:`~repro.fuzz.generators.sequence_hash` and the
:data:`~repro.core.stats.WORK_PARITY_FIELDS` counters.  Replaying the
corpus must reproduce both exactly: a change that alters which paths
come back, or how much search work finds them, fails here even when
the answers stay correct.

Regenerate the pins only for a change that is meant to alter paths or
work, and say so in its description::

    PYTHONPATH=src python tests/fuzz/test_corpus_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.kpj import ALGORITHMS
from repro.core.stats import WORK_PARITY_FIELDS
from repro.fuzz import seed_corpus_cases
from repro.fuzz.generators import sequence_hash
from repro.fuzz.oracles import build_solver, run_query

PINS_FILE = Path(__file__).parents[2] / "fuzz" / "corpus_pins.json"
_CASES = dict(seed_corpus_cases())


def observe(name: str, algorithm: str) -> dict:
    """The pinned record of one corpus case under one algorithm."""
    case = _CASES[name]
    result = run_query(build_solver(case, cached=True), case, algorithm)
    digest = hashlib.sha256(repr(sequence_hash(result.paths)).encode()).hexdigest()
    return {
        "paths": digest[:16],
        "work": {f: getattr(result.stats, f) for f in WORK_PARITY_FIELDS},
    }


def all_pins() -> dict:
    return {
        name: {algorithm: observe(name, algorithm) for algorithm in sorted(ALGORITHMS)}
        for name in sorted(_CASES)
    }


def _committed() -> dict:
    return json.loads(PINS_FILE.read_text())


def test_pins_cover_the_corpus_and_registry():
    pins = _committed()
    assert sorted(pins) == sorted(_CASES)
    for name, by_algorithm in pins.items():
        assert sorted(by_algorithm) == sorted(ALGORITHMS), name
        for record in by_algorithm.values():
            assert sorted(record["work"]) == sorted(WORK_PARITY_FIELDS), name


@pytest.mark.parametrize("name", sorted(_CASES))
def test_corpus_case_matches_pins(name):
    pinned = _committed()[name]
    for algorithm in sorted(ALGORITHMS):
        got = observe(name, algorithm)
        assert got["paths"] == pinned[algorithm]["paths"], (name, algorithm)
        assert got["work"] == pinned[algorithm]["work"], (name, algorithm)


def _dump(pins: dict) -> str:
    """One line per (case, algorithm), so a changed pin is a one-line diff."""
    cases = []
    for name, by_algorithm in sorted(pins.items()):
        rows = ",\n".join(
            f"  {json.dumps(algorithm)}: {json.dumps(record, sort_keys=True)}"
            for algorithm, record in sorted(by_algorithm.items())
        )
        cases.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(cases) + "\n}\n"


if __name__ == "__main__":
    PINS_FILE.write_text(_dump(all_pins()))
    print(f"wrote {PINS_FILE}")
