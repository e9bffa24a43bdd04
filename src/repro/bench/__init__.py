"""Benchmark harness: per-figure experiments, load tests, reporting."""

from repro.bench.harness import (
    BatchTiming,
    FigureResult,
    Series,
    solver_for,
    time_query_batch,
    workload_for,
)
from repro.bench.loadtest import (
    evaluate_gate,
    render_entry_summary,
    replay_workload,
)
from repro.bench.reporting import format_figure, format_speedups, write_figure
from repro.bench.trajectory import render_loadtest_report
from repro.bench.workload import (
    Arrival,
    WorkloadSpec,
    generate_schedule,
    load_spec,
    parse_spec,
    schedule_digest,
)

__all__ = [
    "BatchTiming",
    "FigureResult",
    "Series",
    "solver_for",
    "time_query_batch",
    "workload_for",
    "format_figure",
    "format_speedups",
    "write_figure",
    "Arrival",
    "WorkloadSpec",
    "generate_schedule",
    "load_spec",
    "parse_spec",
    "schedule_digest",
    "replay_workload",
    "evaluate_gate",
    "render_entry_summary",
    "render_loadtest_report",
]
