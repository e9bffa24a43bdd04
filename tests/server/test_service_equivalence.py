"""Differential service-equivalence suite (pinned fuzz corpus).

Every committed corpus instance is replayed through a real
:class:`QueryService` — resident worker, shared-memory CSR, explicit
prepare op — and the answer is held to the same bar as the fuzz
harness's sequential matrix:

* the path set must be tie-admissibly correct against the brute-force
  oracle (`repro.fuzz.oracles` is the comparator, not a re-derivation);
* the answer must hash-match a sequential reference that mirrors the
  service discipline (explicit ``prepare`` then search), under every
  kernel — dict and flat;
* the §3g work counters (`WORK_PARITY_FIELDS`) and the per-query
  metrics snapshot must tie out exactly with the sequential reference:
  shipping the search to a resident process over shared memory is not
  allowed to change how much work the search did.

GKPJ corpus cases are skipped for the same reason the oracle module
skips them on the batch path: a ``BatchQuery`` carries one source.
"""

import pytest

from repro.core.stats import WORK_PARITY_FIELDS
from repro.fuzz.corpus import seed_corpus_cases
from repro.fuzz.generators import sequence_hash
from repro.fuzz.oracles import (
    RunConfig,
    _check_answer,
    build_solver,
    oracle_expectation,
)
from repro.obs.metrics import MetricsRegistry
from repro.pathing.kernels import KERNELS
from repro.server.pool import BatchQuery, _execute
from repro.server.service import QueryService

CASES = [
    (name, case)
    for name, case in seed_corpus_cases()
    if case.kind != "gkpj"  # BatchQuery carries a single source
]


def _batch_query(case) -> BatchQuery:
    return BatchQuery(
        source=case.sources[0],
        category=case.category,
        destinations=(
            None if case.category is not None else case.destinations
        ),
        k=case.k,
        alpha=case.alpha,
    )


def _reference(case, kernel):
    """Sequential answer mirroring the service's serving discipline.

    The worker does an explicit ``prepare`` before the search (making
    the query's own internal prepare a warm hit), so the reference
    must too — otherwise the cache counters could never tie out.
    """
    solver = build_solver(case, kernel, cached=True)
    solver.metrics = MetricsRegistry()
    query = _batch_query(case)
    solver.prepare(category=query.category, destinations=query.destinations)
    return _execute(solver, query)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name,case", CASES, ids=[n for n, _ in CASES])
def test_service_answers_tie_out_with_sequential(name, case, kernel):
    expectation = oracle_expectation(case)
    reference = _reference(case, kernel)
    solver = build_solver(case, kernel, cached=True)
    with QueryService(solver, workers=1) as service:
        served = service.query(_batch_query(case))
        counters = dict(service.metrics.counters)

    # 1. Tie-admissible correctness against the brute-force oracle.
    config = RunConfig(served.algorithm, kernel, cached=True, batch=True)
    failures = _check_answer(case, expectation, config, list(served.paths))
    assert not failures, "\n".join(failures)

    # 2. Exact agreement with the sequential reference.
    assert sequence_hash(served.paths) == sequence_hash(reference.paths)

    # 3. Work parity: same search work, counter for counter.
    served_work = served.stats.as_dict()
    reference_work = reference.stats.as_dict()
    for field in WORK_PARITY_FIELDS:
        assert served_work[field] == reference_work[field], (
            f"{name}/{kernel}: {field} diverged "
            f"(service {served_work[field]} vs "
            f"sequential {reference_work[field]})"
        )

    # 4. The metrics snapshots tie out: one query, one explicit
    #    prepare, phase call counts identical to the reference.
    assert counters["service_queries"] == 1
    assert counters["service_prepares"] == 1
    assert counters.get("service_prepares_coalesced", 0) == 0
    served_metrics = served.metrics or {}
    reference_metrics = reference.metrics or {}
    assert served_metrics.get("counters", {}).get("queries") == 1
    for phase, (_, calls) in reference_metrics.get("phases", {}).items():
        got = served_metrics.get("phases", {}).get(phase)
        assert got is not None, f"{name}/{kernel}: phase {phase} missing"
        assert got[1] == calls, (
            f"{name}/{kernel}: phase {phase} ran {got[1]} times in the "
            f"service vs {calls} sequentially"
        )


@pytest.mark.parametrize("kernel", KERNELS)
def test_whole_corpus_through_one_service(kernel):
    """One resident service survives the entire corpus back to back.

    Each corpus instance needs its own graph, hence its own service;
    this test instead drives every *query shape* against a single
    service per case in sequence, asserting the aggregate counters add
    up — the service never needs a restart between instances.
    """
    total = 0
    for name, case in CASES[:6]:
        solver = build_solver(case, kernel, cached=True)
        with QueryService(solver, workers=1) as service:
            first = service.query(_batch_query(case))
            second = service.query(_batch_query(case))
            assert sequence_hash(first.paths) == sequence_hash(second.paths)
            assert service.metrics.counters["service_queries"] == 2
            # The repeat rides the worker's warm prepared entry.
            assert service.metrics.counters["service_prepares"] == 1
            assert (
                service.metrics.counters["service_prepares_coalesced"] == 1
            )
        total += 2
    assert total == 12
