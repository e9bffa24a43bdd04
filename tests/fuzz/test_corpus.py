"""The committed seed corpus replays clean on every CI run.

Every ``fuzz/corpus/*.json`` file goes through the full differential
matrix — all registry algorithms × every kernel (dict, flat)
× cached/uncached × sequential/batch vs. the brute-force and Yen
oracles — plus the observer-parity invariant (metrics and tracer
attached change neither paths nor work counters), and the corpus
itself is pinned byte-for-byte to its in-code definition so the files
and :mod:`repro.fuzz.corpus` can never drift apart.
"""

from pathlib import Path

import pytest

from repro.core.kpj import ALGORITHMS
from repro.fuzz import replay_file, seed_corpus_cases
from repro.fuzz.generators import FuzzCase
from repro.fuzz.invariants import observer_parity_failures

CORPUS_DIR = Path(__file__).parents[2] / "fuzz" / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_exists_and_is_substantial():
    assert CORPUS_DIR.is_dir()
    assert len(CORPUS_FILES) >= 20


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_file_replays_clean(path):
    """All registry algorithms agree with the oracles on this instance."""
    failures = replay_file(str(path))
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_file_observer_parity(path):
    """Attaching metrics and a tracer changes no path and no counter."""
    case = FuzzCase.from_json(path.read_text())
    failures = [
        message
        for algorithm in sorted(ALGORITHMS)
        for message in observer_parity_failures(case, algorithm)
    ]
    assert not failures, "\n".join(failures)


def test_corpus_files_match_generation():
    """The committed files are exactly what the code generates."""
    cases = dict(seed_corpus_cases())
    committed = {p.stem: p for p in CORPUS_FILES}
    assert set(cases) == set(committed), (
        "corpus files out of sync with seed_corpus_cases(); "
        "regenerate with repro.fuzz.write_seed_corpus('fuzz/corpus')"
    )
    for name, case in cases.items():
        assert committed[name].read_text() == case.to_json(), (
            f"{name}.json drifted from its in-code definition"
        )


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_file_parses_as_case(path):
    """Each file is a valid, self-validating FuzzCase document."""
    case = FuzzCase.from_json(path.read_text())
    assert case.n >= 1
    assert case.k >= 1
