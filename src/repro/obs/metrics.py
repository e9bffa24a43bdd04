"""The query-lifecycle metrics registry.

The paper's efficiency story is about *where the work goes* — CompSP
vs TestLB vs SPT growth (Sections 4–5) — so end-to-end wall clock
alone cannot attribute a speed-up (or a regression) to a phase.
:class:`MetricsRegistry` is the package's one sink for that
attribution:

* **phases** — wall-clock accumulators keyed by phase name
  (``prepare`` / ``comp_sp`` / ``spt_grow`` / ``test_lb`` /
  ``division`` / ``search_other`` / ``warmup`` / ``landmark_build``),
  each recording total seconds and call count.  A query's phases are
  the sums of its event record, and its search peaks that record's
  peak attributes, both added once per query by
  :func:`repro.obs.tracing.fold`; phases outside a query use the
  :meth:`MetricsRegistry.phase_timer` context manager;
* **counters** — monotonically increasing event counts;
* **gauges** — size/peak measurements (queue peaks, cache and matrix
  bytes).  Gauges record *peaks*: setting a gauge keeps the maximum
  seen, and merging two registries takes the per-gauge max;
* **histograms** — fixed-bucket latency distributions with quantile
  estimation (p50/p95/p99 for batch reports).

Everything is a plain python structure: a registry round-trips
through :meth:`MetricsRegistry.as_dict` / :meth:`MetricsRegistry.from_dict`
(the fork boundary ships snapshots exactly like
:class:`~repro.core.stats.SearchStats` rides back with each result),
and :meth:`MetricsRegistry.render_prom` emits Prometheus text
exposition with **no dependency** — :func:`parse_prom` is the matching
strict parser the CI smoke job uses.

A registry is the aggregate view of the per-query event record
(:mod:`repro.obs.tracing`): attaching one to a solver turns the record
on, and each query's record is folded into it inside the query's
search interval, then dropped unless a tracer keeps it.  Every service
worker runs that way.  The search code never sees a registry: it
reports to its :class:`~repro.core.stats.SearchStats` and its record
alone, and :class:`~repro.core.kpj.KPJSolver` fills the per-query
registry.  The disabled path costs one ``None`` check per site.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Iterator, Mapping, Sequence

__all__ = [
    "MetricsRegistry",
    "Histogram",
    "maybe_phase",
    "parse_prom",
    "log_buckets",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "LOADTEST_LATENCY_BUCKETS_MS",
    "SEARCH_PHASES",
]

#: Latency buckets (milliseconds) for per-query histograms — roughly
#: logarithmic from sub-millisecond queries on the small
#: registry graphs up to multi-second cold landmark builds.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


def log_buckets(lo: float, hi: float, per_decade: int = 5) -> tuple[float, ...]:
    """Log-spaced histogram bucket bounds covering ``[lo, hi]``.

    Returns strictly increasing bounds starting at ``lo`` with
    ``per_decade`` buckets per factor of 10, extended until the last
    bound is at least ``hi`` (so nothing inside the declared range can
    fall into the implicit ``+Inf`` overflow bucket, where a quantile
    collapses to the largest finite bound).  Bounds are rounded to six
    significant digits so persisted histograms stay readable.
    """
    if not (math.isfinite(lo) and lo > 0.0):
        raise ValueError(f"log_buckets lo must be finite and > 0, got {lo}")
    if not (math.isfinite(hi) and hi > lo):
        raise ValueError(f"log_buckets hi must be finite and > lo, got {hi}")
    if int(per_decade) != per_decade or per_decade < 1:
        raise ValueError(f"per_decade must be an integer >= 1, got {per_decade}")
    per_decade = int(per_decade)
    count = math.ceil(per_decade * math.log10(hi / lo)) + 1
    bounds = tuple(
        float(f"{lo * 10.0 ** (i / per_decade):.6g}") for i in range(count)
    )
    if list(bounds) != sorted(set(bounds)):
        raise ValueError(
            f"per_decade={per_decade} too fine: rounded bounds collide"
        )
    return bounds


#: Log-spaced buckets for load-test tail latencies: 50 µs up to two
#: minutes, five buckets per decade.  Under open-loop load the queue
#: wait dwarfs the service time, so :data:`DEFAULT_LATENCY_BUCKETS_MS`
#: (top bound 5 s) would collapse a loaded run's p99.9 into the
#: overflow bucket; these reach far enough that every honest tail
#: quantile stays in a finite bucket.
LOADTEST_LATENCY_BUCKETS_MS: tuple[float, ...] = log_buckets(0.05, 120_000.0, 5)

#: The fine-grained phases recorded *inside* the iteratively bounding
#: driver; the solver derives ``search_other`` as the driver residue so
#: the recorded phases tile the query's elapsed time.
SEARCH_PHASES: tuple[str, ...] = ("comp_sp", "spt_grow", "test_lb", "division")


class Histogram:
    """A fixed-bucket histogram with Prometheus ``le`` semantics.

    ``buckets`` are the finite upper bounds; one implicit ``+Inf``
    overflow bucket follows.  ``counts[i]`` is the number of
    observations ``<= buckets[i]`` *exclusive of earlier buckets*
    (non-cumulative storage; :meth:`render` and quantiles cumulate on
    demand).
    """

    __slots__ = ("buckets", "counts", "total", "sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        self.buckets: tuple[float, ...] = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        self.counts: list[int] = [0] * (len(self.buckets) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation.

        Bucket bounds are **inclusive** (Prometheus ``le``):
        ``bisect_left`` sends a value exactly equal to a bound into
        that bound's bucket, not the next one.
        """
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1), interpolated in-bucket.

        Pinned edge-case behaviour (tested explicitly — treat any
        change as a breaking one):

        * ``q`` outside ``(0, 1]`` raises :class:`ValueError` — in
          particular **q = 0 raises** rather than returning a minimum
          (a fixed-bucket histogram has no honest minimum to give);
        * an **empty histogram** returns ``nan`` for every valid ``q``;
        * observations **above the top bucket** land in the implicit
          ``+Inf`` overflow bucket, and any quantile that falls there
          is reported at the largest *finite* bound — the honest
          answer a fixed-bucket histogram can give (``inf`` when the
          bucket layout is empty, i.e. overflow is the only bucket);
        * a rank landing exactly on a bucket's cumulative boundary
          reports that bucket's **upper** bound (``q = 1.0`` with a
          single in-bucket observation reports the bucket's ``le``,
          never the next bucket's);
        * in-bucket interpolation is linear from the previous bound
          (0 for the first bucket — observations are assumed
          non-negative, as all recorded series here are).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.total == 0:
            return math.nan
        rank = q * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= rank:
                if i >= len(self.buckets):  # overflow bucket
                    return self.buckets[-1] if self.buckets else math.inf
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = self.buckets[i]
                return lo + (hi - lo) * (rank - seen) / count
            seen += count
        return self.buckets[-1] if self.buckets else math.inf  # pragma: no cover

    def merge(self, other: "Histogram | Mapping") -> None:
        """Bucket-wise addition of a histogram or an :meth:`as_dict`
        snapshot, in place; bucket layouts must match."""
        if isinstance(other, Histogram):
            buckets, counts = other.buckets, other.counts
            total, total_sum = other.total, other.sum
        else:
            buckets, counts = tuple(other["buckets"]), other["counts"]
            total, total_sum = other["total"], other["sum"]
        if buckets != self.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        for i, count in enumerate(counts):
            self.counts[i] += count
        self.total += total
        self.sum += total_sum

    def as_dict(self) -> dict:
        """Picklable snapshot."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Histogram":
        """Inverse of :meth:`as_dict`."""
        hist = cls(data["buckets"])
        hist.counts = list(data["counts"])
        hist.total = int(data["total"])
        hist.sum = float(data["sum"])
        return hist


class MetricsRegistry:
    """Counters, gauges, phase timers, and histograms for one scope.

    A registry is *per scope*, not global: the solver keeps one for
    its lifetime, every query records into a fresh per-query registry
    whose snapshot rides on the :class:`~repro.core.result.QueryResult`,
    and :func:`~repro.server.service.run_batch` merges the per-query
    snapshots (plus the service's one-time ``warmup``) into the
    caller's aggregate — the same shape as ``SearchStats`` threading.
    """

    __slots__ = ("counters", "gauges", "phases", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: name -> [seconds_total, calls_total]
        self.phases: dict[str, list] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Record a gauge *peak*: keeps the maximum value seen."""
        if value > self.gauges.get(name, -math.inf):
            self.gauges[name] = value

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        """Record one observation into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(buckets)
        hist.observe(value)

    def observe_phase(self, name: str, seconds: float, calls: int = 1) -> None:
        """Add ``seconds``/``calls`` to phase ``name`` (a record's sum)."""
        entry = self.phases.get(name)
        if entry is None:
            self.phases[name] = [seconds, calls]
        else:
            entry[0] += seconds
            entry[1] += calls

    @contextmanager
    def phase_timer(self, name: str) -> Iterator[None]:
        """Context manager timing one coarse phase."""
        start = perf_counter()
        try:
            yield
        finally:
            self.observe_phase(name, perf_counter() - start)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def phase_seconds(self, names: Sequence[str] | None = None) -> float:
        """Total recorded seconds over ``names`` (or every phase)."""
        if names is None:
            return sum(entry[0] for entry in self.phases.values())
        return sum(self.phases[n][0] for n in names if n in self.phases)

    def merge(self, other: "MetricsRegistry | Mapping") -> "MetricsRegistry":
        """Fold another registry (or an :meth:`as_dict` snapshot) in,
        in place: nothing of ``other`` is copied or shared.

        Counters and phases add; gauges take the max (they record
        peaks); histograms add bucket-wise.  Returns self.
        """
        if isinstance(other, MetricsRegistry):
            sections = other.counters, other.gauges, other.phases, other.histograms
        else:
            sections = [
                other.get(key, {}) for key in ("counters", "gauges", "phases", "histograms")
            ]
        counters, gauges, phases, histograms = sections
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in gauges.items():
            self.set_gauge(name, value)
        for name, (seconds, calls) in phases.items():
            self.observe_phase(name, seconds, calls)
        for name, hist in histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram(
                    hist.buckets if isinstance(hist, Histogram) else hist["buckets"]
                )
            mine.merge(hist)
        return self

    def merge_stats(self, stats) -> "MetricsRegistry":
        """Fold a :class:`~repro.core.stats.SearchStats` into the counters.

        The one place where work counts become registry counters: no
        registry counts them as they happen, so a registry rendered on
        its own (``kpj query``/``kpj batch --metrics``, the service's
        ``/metrics``) folds the stats kept beside it once, at render
        time, and its exposition carries the work counters next to the
        phase timers.  Every non-zero field is added.
        """
        for name, value in stats.as_dict().items():
            if value:
                self.inc(name, value)
        return self

    def as_dict(self) -> dict:
        """Picklable snapshot (inverse: :meth:`from_dict`)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "phases": {name: list(entry) for name, entry in self.phases.items()},
            "histograms": {
                name: hist.as_dict() for name, hist in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from an :meth:`as_dict` snapshot."""
        reg = cls()
        reg.counters.update(data.get("counters", {}))
        reg.gauges.update(data.get("gauges", {}))
        for name, entry in data.get("phases", {}).items():
            reg.phases[name] = [float(entry[0]), int(entry[1])]
        for name, hist in data.get("histograms", {}).items():
            reg.histograms[name] = Histogram.from_dict(hist)
        return reg

    def report(self) -> dict:
        """The structured run report (``--metrics json`` payload).

        Phases come with milliseconds and call counts; histograms with
        count/sum and estimated p50/p95/p99.
        """
        phases = {
            name: {"ms": seconds * 1000.0, "seconds": seconds, "calls": calls}
            for name, (seconds, calls) in sorted(self.phases.items())
        }
        histograms = {}
        for name, hist in sorted(self.histograms.items()):
            histograms[name] = {
                "count": hist.total,
                "sum": hist.sum,
                "p50": hist.quantile(0.50),
                "p95": hist.quantile(0.95),
                "p99": hist.quantile(0.99),
            }
        return {
            "phases": phases,
            "phase_total_ms": self.phase_seconds() * 1000.0,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": histograms,
        }

    def render_text(self) -> str:
        """Aligned human-readable report (``--metrics text``)."""
        lines = ["metrics:"]
        if self.phases:
            width = max(len(n) for n in self.phases)
            lines.append("  phases (ms / calls):")
            for name, (seconds, calls) in sorted(self.phases.items()):
                lines.append(f"    {name:<{width}}  {seconds * 1e3:10.3f}  {calls}")
        if self.counters:
            width = max(len(n) for n in self.counters)
            lines.append("  counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"    {name:<{width}}  {_exact(value)}")
        if self.gauges:
            width = max(len(n) for n in self.gauges)
            lines.append("  gauges:")
            for name, value in sorted(self.gauges.items()):
                lines.append(f"    {name:<{width}}  {_exact(value)}")
        for name, hist in sorted(self.histograms.items()):
            lines.append(
                f"  {name}: n={hist.total}  p50={hist.quantile(0.5):.3f}"
                f"  p95={hist.quantile(0.95):.3f}  p99={hist.quantile(0.99):.3f}"
            )
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------
    def render_prom(self) -> str:
        """Prometheus text-format exposition, no client library needed.

        Phases become ``kpj_phase_seconds_total`` /
        ``kpj_phase_calls_total`` with a ``phase`` label; counters get
        a ``_total`` suffix; histograms emit the standard
        ``_bucket{le=...}`` / ``_sum`` / ``_count`` triple.  Counter
        and gauge values are written exactly (see :func:`_exact`), so
        :func:`parse_prom` reads back the recorded number.  Output is
        deterministically ordered so CI can diff two expositions.
        """
        out: list[str] = []
        if self.phases:
            out.append("# TYPE kpj_phase_seconds_total counter")
            for name, (seconds, _) in sorted(self.phases.items()):
                out.append(
                    f'kpj_phase_seconds_total{{phase="{name}"}} {seconds:.9f}'
                )
            out.append("# TYPE kpj_phase_calls_total counter")
            for name, (_, calls) in sorted(self.phases.items()):
                out.append(f'kpj_phase_calls_total{{phase="{name}"}} {calls}')
        for name, value in sorted(self.counters.items()):
            metric = f"kpj_{name}_total"
            out.append(f"# TYPE {metric} counter")
            out.append(f"{metric} {_exact(value)}")
        for name, value in sorted(self.gauges.items()):
            metric = f"kpj_{name}"
            out.append(f"# TYPE {metric} gauge")
            out.append(f"{metric} {_exact(value)}")
        for name, hist in sorted(self.histograms.items()):
            metric = f"kpj_{name}"
            out.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(hist.buckets, hist.counts):
                cumulative += count
                out.append(f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
            out.append(f'{metric}_bucket{{le="+Inf"}} {hist.total}')
            out.append(f"{metric}_sum {hist.sum:.9f}")
            out.append(f"{metric}_count {hist.total}")
        return "\n".join(out) + "\n"


def _exact(value) -> str:
    """A counter or gauge value as text that parses back to itself:
    integral values as integers (``{:g}`` would round 1234567 to
    ``1.23457e+06``), any other value by ``repr``."""
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def maybe_phase(registry: MetricsRegistry | None, name: str):
    """``registry.phase_timer(name)`` or a no-op context when disabled.

    The one-``None``-check idiom for phases outside a query
    (``landmark_build``, :meth:`~repro.core.kpj.KPJSolver.prepare`); a
    query's phases come from its event record instead.
    """
    if registry is None:
        return nullcontext()
    return registry.phase_timer(name)


def parse_prom(text: str, require_non_negative: bool = True) -> dict:
    """Strict parser for :meth:`MetricsRegistry.render_prom` output.

    Returns ``{(metric_name, labels): value}`` with ``labels`` a
    ``tuple`` of sorted ``(key, value)`` pairs.  Raises
    :class:`ValueError` on malformed lines, non-finite (NaN/inf)
    samples, or — by default — negative values: a negative or NaN
    timer means an instrumentation bug, and the CI smoke job treats it
    as a hard failure.
    """
    samples: dict[tuple[str, tuple], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"line {lineno}: no metric name in {raw!r}")
        labels: tuple = ()
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"line {lineno}: unterminated labels in {raw!r}")
            name, _, label_blob = name_part[:-1].partition("{")
            pairs = []
            for item in label_blob.split(","):
                key, eq, val = item.partition("=")
                if not eq or len(val) < 2 or val[0] != '"' or val[-1] != '"':
                    raise ValueError(f"line {lineno}: bad label {item!r}")
                pairs.append((key.strip(), val[1:-1]))
            labels = tuple(sorted(pairs))
        else:
            name = name_part
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        try:
            value = float(value_part)
        except ValueError:
            raise ValueError(
                f"line {lineno}: unparseable value {value_part!r}"
            ) from None
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"line {lineno}: non-finite sample {raw!r}")
        if require_non_negative and value < 0:
            raise ValueError(f"line {lineno}: negative sample {raw!r}")
        key = (name, labels)
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {name} {labels}")
        samples[key] = value
    return samples
