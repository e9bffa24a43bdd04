"""repro.obs — query-lifecycle observability.

One event record per query holds a search's timed intervals
(:mod:`repro.obs.tracing`: the span views built from it on export —
Chrome trace-event JSON, tree dumps, folded stacks, the ``kpj
explain`` narrative — and the subspace-tree introspection of
:mod:`repro.obs.subspace_report`).  The aggregate is a dependency-free
metrics layer whose per-query phases are the record's sums, plus
counters, gauges, histograms and Prometheus exposition; every service
worker runs with it attached, and only a tracer keeps the records.
Around them sit structured per-query JSON logging with slow-query
dumps (:mod:`repro.obs.log`) and opt-in memory telemetry
(:mod:`repro.obs.memory`).  Disabled-path overhead is one ``None``
check per site — see DESIGN.md §3c/§3d/§3g.
"""

from repro.obs.log import (
    QueryLogger,
    SlowQuery,
    load_slow_query,
    new_query_id,
    parse_query_log,
)
from repro.obs.memory import MemoryTelemetry, peak_rss_bytes
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    SEARCH_PHASES,
    Histogram,
    MetricsRegistry,
    maybe_phase,
    parse_prom,
)
from repro.obs.subspace_report import DepthRow, SubspaceTreeReport
from repro.obs.tracing import (
    SpanTracer,
    chrome_trace,
    folded_stacks,
    phase_durations,
    spans,
    render_narrative,
    render_tree,
    validate_chrome_trace,
)

__all__ = [
    "MetricsRegistry",
    "Histogram",
    "maybe_phase",
    "parse_prom",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "SEARCH_PHASES",
    "SpanTracer",
    "spans",
    "chrome_trace",
    "validate_chrome_trace",
    "render_tree",
    "render_narrative",
    "folded_stacks",
    "phase_durations",
    "SubspaceTreeReport",
    "DepthRow",
    "QueryLogger",
    "SlowQuery",
    "new_query_id",
    "parse_query_log",
    "load_slow_query",
    "MemoryTelemetry",
    "peak_rss_bytes",
]
