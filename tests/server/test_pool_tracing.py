"""Batch span trees: every query tree lands under the batch span of
the solver's own tracer, whatever process recorded it."""

from __future__ import annotations

import os

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.obs.tracing import SpanTracer, chrome_trace, validate_chrome_trace
from repro.server.service import BatchQuery


@pytest.fixture()
def sj_solver():
    dataset = road_network("SJ")
    return dataset, KPJSolver(dataset.graph, dataset.categories, landmarks=8)


def _workload(count: int = 6) -> list[BatchQuery]:
    return [
        BatchQuery(source=(i * 97) % 500, category="T2", k=4)
        for i in range(count)
    ]


def _tree_checks(tracer: SpanTracer, expected_queries: int):
    spans = tracer.spans
    (batch,) = [s for s in spans if s["name"] == "batch"]
    queries = [s for s in spans if s["name"] == "query"]
    assert len(queries) == expected_queries
    # every query tree hangs off the batch span
    assert all(q["parent"] == batch["id"] for q in queries)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            assert s["parent"] in by_id  # no dangling parents
    # no timestamp inversions: children start within the parent and a
    # child interval never outruns its parent's (perf_counter is one
    # machine-wide monotonic clock, shared across forked workers)
    eps = 1e-6
    for s in spans:
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if parent is None:
            continue
        assert s["ts"] >= parent["ts"] - eps, (s["name"], parent["name"])
        assert s["ts"] + s["dur"] <= parent["ts"] + parent["dur"] + eps, (
            s["name"], parent["name"],
        )
    return spans, batch, queries


class TestSequentialBatchTracing:
    def test_batch_span_reroots_query_trees(self, sj_solver):
        _, solver = sj_solver
        solver.tracer = tracer = SpanTracer()
        results = solver.solve_batch(_workload(), workers=1)
        assert all(r.trace is not None for r in results)
        spans, batch, queries = _tree_checks(tracer, len(results))
        assert batch["attrs"]["queries"] == len(results)
        assert validate_chrome_trace(chrome_trace(tracer)) == len(spans)

    def test_own_tracer_removed_after_batch(self, sj_solver):
        """The batch leaves the solver's tracer as it found it: neither
        removed nor replaced."""
        _, solver = sj_solver
        solver.solve_batch(_workload(2), workers=1)
        assert solver.tracer is None
        solver.tracer = tracer = SpanTracer()
        solver.solve_batch(_workload(2), workers=1)
        assert solver.tracer is tracer

    def test_no_tracer_leaves_results_bare(self, sj_solver):
        _, solver = sj_solver
        results = solver.solve_batch(_workload(2), workers=1)
        assert all(r.trace is None for r in results)


class TestParallelBatchTracing:
    def test_worker_spans_reroot_with_foreign_pids(self, sj_solver):
        """Worker span trees come home, re-root, and keep their pid."""
        _, solver = sj_solver
        solver.tracer = tracer = SpanTracer()
        results = solver.solve_batch(_workload(8), workers=2)
        assert all(r.trace is not None for r in results)
        spans, batch, queries = _tree_checks(tracer, len(results))
        pids = {q["pid"] for q in queries}
        # forked workers recorded under their own pids, none of them ours
        assert os.getpid() not in pids
        assert len(pids) >= 1  # >=2 usually, but sharding may starve one
        assert batch["pid"] == os.getpid()
        # warmup phase recorded in the parent, under the batch span
        (warmup,) = [s for s in spans if s["name"] == "warmup"]
        assert warmup["parent"] == batch["id"]
        doc = chrome_trace(tracer)
        assert validate_chrome_trace(doc) == len(spans)
        lanes = {e["pid"] for e in doc["traceEvents"]}
        assert len(lanes) >= 2  # parent lane + at least one worker lane

    def test_parallel_results_identical_to_sequential(self, sj_solver):
        _, solver = sj_solver
        queries = _workload(8)
        sequential = solver.solve_batch(queries, workers=1)
        solver.tracer = SpanTracer()
        parallel = solver.solve_batch(queries, workers=2)
        assert [r.lengths for r in sequential] == [r.lengths for r in parallel]
