"""Differential fuzzing: generators, oracle stack, invariants, shrinker.

The performance layers (the flat search substrate, the
prepared-category cache, resident batch workers) multiply the number of
code paths that must all compute the paper's exact answers.  This package is the correctness
backstop: a seeded, deterministic fuzzing harness that

* **generates** random weighted digraphs with category labelings plus
  targeted shapes (DAGs, near-cliques, zero-weight edges, parallel
  edges, disconnected components) and random KPJ/KSP/GKPJ queries
  (:mod:`repro.fuzz.generators`);
* **cross-checks** every registry algorithm ×
  cached/uncached × sequential/batch against the brute-force and Yen
  oracles on small instances (:mod:`repro.fuzz.oracles`);
* **checks metamorphic invariants** that need no oracle on larger
  instances — top-k prefix property, τ/α schedule invariance, the
  ``G_Q``-transform equivalence of KPJ to KSP, node-relabeling
  permutation invariance, weight-scaling invariance
  (:mod:`repro.fuzz.invariants`);
* **shrinks** any failing ``(graph, query, config)`` to a small
  replayable repro file (:mod:`repro.fuzz.shrink`);
* **drives** it all from one entry point with a planted-mutation
  self-check mode (:mod:`repro.fuzz.harness`), surfaced as the
  ``kpj fuzz`` CLI subcommand.

Everything is derived from one integer seed — the same seed always
generates, checks, and shrinks the same cases.
"""

from repro.fuzz.corpus import seed_corpus_cases, write_seed_corpus
from repro.fuzz.generators import CASE_SHAPES, FuzzCase, generate_case
from repro.fuzz.harness import (
    MUTATIONS,
    FuzzFailure,
    FuzzReport,
    check_case,
    replay_file,
    run_fuzz,
    self_check,
)
from repro.fuzz.shrink import shrink_case

__all__ = [
    "CASE_SHAPES",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "MUTATIONS",
    "check_case",
    "generate_case",
    "replay_file",
    "run_fuzz",
    "seed_corpus_cases",
    "self_check",
    "shrink_case",
    "write_seed_corpus",
]
