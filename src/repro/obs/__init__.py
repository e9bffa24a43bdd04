"""repro.obs — query-lifecycle observability.

Two channels record a search.  The aggregate one is a lightweight,
dependency-free metrics layer: phase timers, counters, gauges,
fixed-bucket histograms, Prometheus text exposition, and the strict
parser the CI smoke job runs against it; every service worker runs
with it attached.  The per-event one is the opt-in span tracer
(:mod:`repro.obs.tracing`: per-query timelines, Chrome trace-event
export, tree dumps, the ``kpj explain`` narrative), with the
subspace-tree introspection built on it
(:mod:`repro.obs.subspace_report`).  Around them sit structured
per-query JSON logging with slow-query dumps (:mod:`repro.obs.log`)
and opt-in memory telemetry (:mod:`repro.obs.memory`).  Disabled-path
overhead is one ``None`` check per site — see DESIGN.md §3c/§3d/§3g.
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
    maybe_span,
    phase_durations,
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
    "maybe_span",
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
