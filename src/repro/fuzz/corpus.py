"""The committed seed corpus: named edge-case instances.

``fuzz/corpus/`` holds one JSON file per instance; CI replays every
file against all registry algorithms on every run
(``tests/fuzz/test_corpus.py``), and ``fuzz/corpus_pins.json`` pins
each algorithm's paths and work counters on it across commits
(``tests/fuzz/test_corpus_pins.py``).  The corpus is the distilled history
of shapes that are easy to get wrong — each entry is the kind of
minimal instance the shrinker would produce for its bug class, kept
permanently so a regression is caught by a 1-second test instead of a
fuzzing campaign.

The files are generated *from this module* (:func:`write_seed_corpus`)
so the corpus can never drift from the code that documents it; a test
asserts the committed files match regeneration byte-for-byte.
"""

from __future__ import annotations

import os

from repro.fuzz.generators import FuzzCase

__all__ = ["seed_corpus_cases", "write_seed_corpus"]


def _case(name: str, **kwargs) -> tuple[str, FuzzCase]:
    return name, FuzzCase(**kwargs)


def seed_corpus_cases() -> list[tuple[str, FuzzCase]]:
    """The named corpus instances, in committed order.

    Each tuple is ``(name, case)``; the name becomes the corpus file
    name and should say what the instance stresses.
    """
    cases = [
        # -- degenerate sizes -------------------------------------------
        _case(
            "two-nodes-one-edge",
            n=2, edges=((0, 1, 1.0),), kind="ksp",
            sources=(0,), destinations=(1,), k=3,
        ),
        _case(
            "single-path-k-overshoot",
            n=4, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)), kind="kpj",
            sources=(0,), destinations=(3,), k=6,
        ),
        _case(
            "no-path-at-all",
            n=3, edges=((1, 0, 1.0), (2, 1, 2.0)), kind="ksp",
            sources=(0,), destinations=(2,), k=2,
        ),
        _case(
            "edgeless-graph",
            n=3, edges=(), kind="kpj",
            sources=(0,), destinations=(1, 2), k=2,
        ),
        # -- source/destination overlap ---------------------------------
        _case(
            "source-is-destination",
            n=3, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)), kind="kpj",
            sources=(0,), destinations=(0, 2), k=3,
        ),
        _case(
            "gkpj-sources-overlap-destinations",
            n=4,
            edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)),
            kind="gkpj", sources=(0, 2), destinations=(1, 2), k=4,
        ),
        _case(
            "path-through-destination",
            # The best path to one destination passes through another:
            # banning termination must not ban traversal.
            n=4, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)), kind="kpj",
            sources=(0,), destinations=(1, 3), k=4,
        ),
        # -- ties and zero weights --------------------------------------
        _case(
            "all-weights-equal",
            n=5,
            edges=(
                (0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
                (1, 2, 1.0), (2, 1, 1.0), (3, 4, 1.0),
            ),
            kind="kpj", sources=(0,), destinations=(4,), k=5,
        ),
        _case(
            "zero-weight-detour",
            n=4,
            edges=((0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0), (2, 3, 1.0)),
            kind="ksp", sources=(0,), destinations=(3,), k=3,
        ),
        _case(
            "zero-weight-everything",
            n=4,
            edges=(
                (0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (0, 2, 0.0),
                (1, 3, 0.0),
            ),
            kind="kpj", sources=(0,), destinations=(3,), k=4,
        ),
        _case(
            "tie-at-rank-k",
            # Exactly k paths share the k-th length; the inclusive τ
            # cutoff must keep one of them (any of them).
            n=5,
            edges=(
                (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
                (1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0),
            ),
            kind="ksp", sources=(0,), destinations=(4,), k=2,
        ),
        # -- parallel edges ----------------------------------------------
        _case(
            "parallel-edges-min-collapse",
            n=3,
            edges=((0, 1, 5.0), (0, 1, 2.0), (0, 1, 9.0), (1, 2, 1.0)),
            kind="ksp", sources=(0,), destinations=(2,), k=2,
        ),
        _case(
            "parallel-zero-vs-positive",
            n=3,
            edges=((0, 1, 3.0), (0, 1, 0.0), (1, 2, 0.0), (1, 2, 4.0)),
            kind="kpj", sources=(0,), destinations=(2,), k=2,
        ),
        # -- disconnection ------------------------------------------------
        _case(
            "destination-unreachable",
            n=5,
            edges=((0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 4, 1.0)),
            kind="kpj", sources=(0,), destinations=(4,), k=3,
        ),
        _case(
            "one-dest-reachable-one-not",
            n=5,
            edges=((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)),
            kind="kpj", sources=(0,), destinations=(2, 4), k=3,
        ),
        _case(
            "gkpj-one-source-stranded",
            n=5,
            edges=((0, 1, 1.0), (1, 2, 2.0), (4, 3, 1.0)),
            kind="gkpj", sources=(0, 4), destinations=(2,), k=3,
        ),
        # -- structure the deviation machinery trips over ----------------
        _case(
            "diamond-with-return-edges",
            n=4,
            edges=(
                (0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0),
                (1, 2, 1.0), (2, 1, 2.0), (3, 1, 1.0), (3, 2, 1.0),
            ),
            kind="kpj", sources=(0,), destinations=(3,), k=6,
        ),
        _case(
            "near-clique-5",
            n=5,
            edges=tuple(
                (u, v, float(1 + (u * 5 + v) % 4))
                for u in range(5)
                for v in range(5)
                if u != v
            ),
            kind="kpj", sources=(0,), destinations=(3, 4), k=6,
        ),
        _case(
            "dag-longest-chain",
            n=6,
            edges=(
                (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),
                (4, 5, 1.0), (0, 2, 3.0), (1, 3, 3.0), (2, 4, 3.0),
                (3, 5, 3.0), (0, 3, 9.0),
            ),
            kind="kpj", sources=(0,), destinations=(5,), k=6,
        ),
        _case(
            "two-cycle-pump",
            # A 2-cycle adjacent to the source: simple-path constraint
            # must prune the infinite walk family.
            n=4,
            edges=(
                (0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0),
                (2, 3, 1.0), (0, 3, 9.0),
            ),
            kind="ksp", sources=(0,), destinations=(3,), k=4,
        ),
        _case(
            "gkpj-virtual-both-ends",
            n=6,
            edges=(
                (0, 2, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 1.0),
                (3, 5, 2.0), (2, 4, 4.0),
            ),
            kind="gkpj", sources=(0, 1), destinations=(4, 5), k=5,
        ),
        _case(
            "category-query-with-decoys",
            n=5,
            edges=(
                (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 2.0),
                (4, 3, 1.0),
            ),
            kind="kpj", sources=(0,), destinations=(3, 4), k=3,
            categories={
                "T": (3, 4), "singleton": (2,), "empty": (), "blob": (0, 1, 3)
            },
            category="T",
        ),
    ]
    return cases


def write_seed_corpus(directory: str) -> list[str]:
    """Write every corpus case to ``directory`` as canonical JSON.

    Returns the file paths written.  File contents are deterministic
    (sorted keys, fixed indent), so regeneration is byte-stable and
    the corpus-sync test can compare against the committed files.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, case in seed_corpus_cases():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(case.to_json())
        paths.append(path)
    return paths
