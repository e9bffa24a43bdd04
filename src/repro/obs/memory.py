"""Memory telemetry — opt-in tracemalloc attribution and byte gauges.

Work counters say how much the kernels *did*; this module says what
that work *cost in memory*, in three independent tiers:

* :func:`peak_rss_bytes` — the process high-water mark from
  ``getrusage`` (always available, ~µs to read);
* pool/cache byte accounting — :func:`scratch_pool_bytes` sizes the
  pooled :class:`~repro.pathing.flat.FlatScratch` buffers and
  compiled-tier :class:`~repro.native.SPTState` states parked on a
  graph (each reports itself via ``nbytes()``), complementing the
  solver's ``prepared_cache_bytes`` gauge;
* :class:`MemoryTelemetry` — **opt-in** per-phase ``tracemalloc``
  attribution.  Tracemalloc instruments every allocation in the
  process (typically 2-4x slower), so it is never started implicitly:
  construct a telemetry object, attach it to the solver (or pass
  ``--memory`` on the CLI), and each query phase records its net
  allocated bytes and traced peak into the per-query registry as
  ``mem_<phase>_alloc_bytes`` counters and ``mem_<phase>_peak_bytes``
  gauges.

Everything here follows the observability discipline of DESIGN.md §3c:
disabled means one ``None`` check at the call site, nothing imported
or started until a user asks.
"""

from __future__ import annotations

import sys
import tracemalloc
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MemoryTelemetry",
    "peak_rss_bytes",
    "scratch_pool_bytes",
]


def peak_rss_bytes() -> int:
    """Process peak resident-set size in bytes (0 where unavailable).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalised to bytes.  Platforms without :mod:`resource` (Windows)
    report 0 rather than failing — the gauge is advisory.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX only
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


def scratch_pool_bytes(graph) -> dict[str, int]:
    """Bytes parked in the scratch pools searches on ``graph`` draw from.

    Sums ``nbytes()`` over the pooled flat scratch sets of the base
    graph and the compiled settle loop's pooled states (idle buffers
    awaiting reuse — buffers currently checked out by a running search
    are owned by that search, not the pool).  A ``G_Q`` overlay or
    reversed view reports its base graph's pools.
    """
    pools = graph.search_pools
    held = sum(
        s.nbytes() for kind in ("scratch", "native") for s in pools.get(kind, ())
    )
    return {"flat_scratch_pool_bytes": held}


class MemoryTelemetry:
    """Per-phase tracemalloc attribution (explicitly opt-in).

    Lifecycle: :meth:`start` begins tracing (a no-op if something else
    — e.g. ``PYTHONTRACEMALLOC`` — already started it, and then
    :meth:`stop` leaves it running); :meth:`phase` wraps a unit of
    work and records its net allocations and traced peak into a
    registry; :meth:`record_gauges` stamps the process-level gauges.
    Phases are expected to be sequential, not nested — the traced peak
    is a process-global high-water mark that each phase resets on
    entry, so nested phases would attribute the inner peak to both.
    """

    def __init__(self) -> None:
        self._started_here = False

    @property
    def active(self) -> bool:
        """Whether tracemalloc is currently tracing."""
        return tracemalloc.is_tracing()

    def start(self) -> "MemoryTelemetry":
        """Begin tracing (no-op if something else already started it)."""
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_here = True
        return self

    def stop(self) -> None:
        """Stop tracing, but only if :meth:`start` actually started it."""
        if self._started_here:
            tracemalloc.stop()
            self._started_here = False

    def __enter__(self) -> "MemoryTelemetry":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @contextmanager
    def phase(self, name: str, registry: "MetricsRegistry | None") -> Iterator[None]:
        """Attribute the body's allocations to ``name`` in ``registry``.

        Records ``mem_<name>_alloc_bytes`` (counter: net bytes still
        allocated when the phase ends, clamped at 0) and
        ``mem_<name>_peak_bytes`` (gauge: traced high-water mark during
        the phase).  A no-op when tracing is off or ``registry`` is
        ``None``.
        """
        if registry is None or not tracemalloc.is_tracing():
            yield
            return
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            after, peak = tracemalloc.get_traced_memory()
            registry.inc(f"mem_{name}_alloc_bytes", max(0, after - before))
            registry.set_gauge(f"mem_{name}_peak_bytes", peak)

    def record_gauges(self, registry: "MetricsRegistry | None") -> None:
        """Stamp process-level memory gauges into ``registry``.

        ``process_peak_rss_bytes`` always; ``tracemalloc_current_bytes``
        / ``tracemalloc_peak_bytes`` when tracing is active.
        """
        if registry is None:
            return
        registry.set_gauge("process_peak_rss_bytes", peak_rss_bytes())
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            registry.set_gauge("tracemalloc_current_bytes", current)
            registry.set_gauge("tracemalloc_peak_bytes", peak)
