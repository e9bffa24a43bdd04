"""Declarative load-test workload specs and seeded arrival schedules.

The serving story needs numbers measured *under concurrent load*, not
single-query best-of-5, and those numbers are only comparable over
time if the workload that produced them is pinned.  This module is
the pinning mechanism: a JSON/TOML document is validated into a
frozen :class:`WorkloadSpec` (dataset × category skew × k distribution
× target QPS × worker concurrency × duration-or-query-budget × SLO
bounds), and :func:`generate_schedule` expands the spec into a
deterministic **open-loop** arrival schedule — Poisson inter-arrival
gaps drawn from ``random.Random(spec.seed)``, so the same spec
replays byte-identically (:func:`schedule_digest` is the proof).

Open-loop means arrivals do not wait for completions: the schedule
fixes *when* each query arrives, and a system that cannot keep up
accumulates queue wait instead of silently slowing the offered load —
the failure mode a closed-loop driver can never observe (the
coordinated-omission problem).  The replay engine lives in
:mod:`repro.bench.loadtest`; this module is deliberately free of any
execution machinery so spec validation and schedule generation are
unit-testable without building a dataset.

All validation failures raise :class:`~repro.exceptions.QueryError`
with a message naming the offending field, the same contract as
:mod:`repro.validation`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.exceptions import QueryError

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "SKEW_KINDS",
    "K_KINDS",
    "CategorySkew",
    "KDistribution",
    "SLOPolicy",
    "WorkloadSpec",
    "Arrival",
    "parse_spec",
    "load_spec",
    "generate_schedule",
    "schedule_digest",
]

#: Version stamped into specs and load-test entries; bump on any
#: change to the spec fields or the rng draw order (either breaks
#: byte-identical replay of committed specs).
SPEC_SCHEMA_VERSION = 1

SKEW_KINDS = ("uniform", "zipf", "hot-set")
K_KINDS = ("fixed", "choice")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise QueryError(message)


def _finite_number(value, name: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value),
        f"{name} must be a finite number, got {value!r}",
    )
    return float(value)


def _int_field(value, name: str) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer, got {value!r}",
    )
    return int(value)


def _check_keys(mapping: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    _require(
        not unknown,
        f"unknown {where} field(s): {', '.join(unknown)} "
        f"(allowed: {', '.join(allowed)})",
    )


@dataclass(frozen=True)
class CategorySkew:
    """How arrivals spread over the spec's ranked category list.

    * ``uniform`` — every category equally likely;
    * ``zipf`` — category at rank ``r`` (1-based) drawn with
      probability proportional to ``r ** -s``;
    * ``hot-set`` — the first ``hot`` categories share ``mass`` of the
      probability uniformly, the remaining categories share the rest.
    """

    kind: str = "uniform"
    s: float = 1.2
    hot: int = 1
    mass: float = 0.9

    def weights(self, count: int) -> tuple[float, ...]:
        """Per-category draw weights for ``count`` ranked categories."""
        if self.kind == "uniform":
            return (1.0,) * count
        if self.kind == "zipf":
            return tuple((rank + 1) ** -self.s for rank in range(count))
        # hot-set
        cold = count - self.hot
        return tuple(
            self.mass / self.hot if rank < self.hot else (1.0 - self.mass) / cold
            for rank in range(count)
        )

    def as_dict(self) -> dict:
        """Canonical JSON form (only the active kind's knobs)."""
        if self.kind == "zipf":
            return {"kind": self.kind, "s": self.s}
        if self.kind == "hot-set":
            return {"kind": self.kind, "hot": self.hot, "mass": self.mass}
        return {"kind": self.kind}

    @classmethod
    def parse(cls, data: Mapping, categories: int) -> "CategorySkew":
        """Validate a spec's ``skew`` mapping (QueryError on violation)."""
        _require(isinstance(data, Mapping), f"skew must be a mapping, got {data!r}")
        kind = data.get("kind")
        _require(
            kind in SKEW_KINDS,
            f"bad skew kind {kind!r}; choose one of: {', '.join(SKEW_KINDS)}",
        )
        if kind == "uniform":
            _check_keys(data, ("kind",), "skew")
            return cls(kind=kind)
        if kind == "zipf":
            _check_keys(data, ("kind", "s"), "skew")
            s = _finite_number(data.get("s", 1.2), "skew.s")
            _require(s > 0.0, f"skew.s must be > 0, got {s}")
            return cls(kind=kind, s=s)
        _check_keys(data, ("kind", "hot", "mass"), "skew")
        hot = _int_field(data.get("hot", 1), "skew.hot")
        _require(
            1 <= hot < categories,
            "skew.hot must leave at least one cold category "
            f"(1 <= hot < {categories}), got {hot}",
        )
        mass = _finite_number(data.get("mass", 0.9), "skew.mass")
        _require(0.0 < mass < 1.0, f"skew.mass must be in (0, 1), got {mass}")
        return cls(kind=kind, hot=hot, mass=mass)


@dataclass(frozen=True)
class KDistribution:
    """The per-arrival ``k`` draw: a fixed value or a weighted choice."""

    kind: str = "fixed"
    value: int = 8
    values: tuple[int, ...] = ()
    weights: tuple[float, ...] | None = None

    def draw(self, rng: random.Random) -> int:
        """One per-arrival ``k`` sample from ``rng``."""
        if self.kind == "fixed":
            return self.value
        return rng.choices(self.values, weights=self.weights)[0]

    def as_dict(self) -> dict:
        """Canonical JSON form (only the active kind's knobs)."""
        if self.kind == "fixed":
            return {"kind": self.kind, "value": self.value}
        out: dict = {"kind": self.kind, "values": list(self.values)}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out

    @classmethod
    def parse(cls, data: Mapping) -> "KDistribution":
        """Validate a spec's ``k`` mapping (QueryError on violation)."""
        _require(isinstance(data, Mapping), f"k must be a mapping, got {data!r}")
        kind = data.get("kind")
        _require(
            kind in K_KINDS,
            f"bad k distribution kind {kind!r}; "
            f"choose one of: {', '.join(K_KINDS)}",
        )
        if kind == "fixed":
            _check_keys(data, ("kind", "value"), "k")
            value = _int_field(data.get("value", 8), "k.value")
            _require(value >= 1, f"k.value must be >= 1, got {value}")
            return cls(kind=kind, value=value)
        _check_keys(data, ("kind", "values", "weights"), "k")
        values = data.get("values")
        _require(
            isinstance(values, Sequence) and not isinstance(values, (str, bytes))
            and len(values) > 0,
            "k.values must be a non-empty list",
        )
        values = tuple(_int_field(v, "k.values entry") for v in values)
        _require(all(v >= 1 for v in values), "k.values entries must be >= 1")
        weights = data.get("weights")
        if weights is not None:
            _require(
                isinstance(weights, Sequence) and len(weights) == len(values),
                "k.weights must match k.values in length",
            )
            weights = tuple(
                _finite_number(w, "k.weights entry") for w in weights
            )
            _require(all(w > 0 for w in weights), "k.weights must be > 0")
        return cls(kind=kind, values=values, weights=weights)


@dataclass(frozen=True)
class SLOPolicy:
    """Declared service-level bounds the gate enforces after a replay.

    ``p99_ms``/``min_qps`` are absolute floors from the spec;
    ``regression_factor`` additionally gates against the pinned
    baseline entry with the same spec (p99 may not grow beyond the
    factor, achieved QPS may not shrink below ``baseline / factor``).
    """

    p99_ms: float | None = None
    min_qps: float | None = None
    max_error_rate: float = 0.0
    regression_factor: float | None = None

    def as_dict(self) -> dict:
        """Canonical JSON form (only the declared bounds)."""
        out: dict = {"max_error_rate": self.max_error_rate}
        if self.p99_ms is not None:
            out["p99_ms"] = self.p99_ms
        if self.min_qps is not None:
            out["min_qps"] = self.min_qps
        if self.regression_factor is not None:
            out["regression_factor"] = self.regression_factor
        return out

    @classmethod
    def parse(cls, data: Mapping) -> "SLOPolicy":
        """Validate a spec's ``slo`` mapping (QueryError on violation)."""
        _require(isinstance(data, Mapping), f"slo must be a mapping, got {data!r}")
        _check_keys(
            data,
            ("p99_ms", "min_qps", "max_error_rate", "regression_factor"),
            "slo",
        )
        p99 = data.get("p99_ms")
        if p99 is not None:
            p99 = _finite_number(p99, "slo.p99_ms")
            _require(p99 > 0.0, f"slo.p99_ms must be > 0, got {p99}")
        min_qps = data.get("min_qps")
        if min_qps is not None:
            min_qps = _finite_number(min_qps, "slo.min_qps")
            _require(min_qps > 0.0, f"slo.min_qps must be > 0, got {min_qps}")
        rate = _finite_number(data.get("max_error_rate", 0.0), "slo.max_error_rate")
        _require(
            0.0 <= rate <= 1.0, f"slo.max_error_rate must be in [0, 1], got {rate}"
        )
        factor = data.get("regression_factor")
        if factor is not None:
            factor = _finite_number(factor, "slo.regression_factor")
            _require(
                factor >= 1.0,
                f"slo.regression_factor must be >= 1, got {factor}",
            )
        return cls(
            p99_ms=p99, min_qps=min_qps, max_error_rate=rate,
            regression_factor=factor,
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """One validated, frozen load-test workload.

    The :meth:`as_dict` form is the entry's **protocol key**: two
    load-test entries are comparable (baseline vs candidate) exactly
    when their spec dicts are equal, the same matching rule
    ``benchmarks/regression.py`` uses for its pinned workloads.
    """

    name: str
    dataset: str
    categories: tuple[str, ...]
    target_qps: float
    workers: int = 1
    duration_s: float | None = None
    queries: int | None = None
    seed: int = 0
    skew: CategorySkew = field(default_factory=CategorySkew)
    k: KDistribution = field(default_factory=KDistribution)
    algorithm: str = "iter-bound-spti"
    landmarks: int = 8
    alpha: float = 1.1
    slo: SLOPolicy = field(default_factory=SLOPolicy)

    def as_dict(self) -> dict:
        """Canonical JSON-ready form (the protocol key; sorted keys)."""
        out: dict = {
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "dataset": self.dataset,
            "categories": list(self.categories),
            "target_qps": self.target_qps,
            "workers": self.workers,
            "seed": self.seed,
            "skew": self.skew.as_dict(),
            "k": self.k.as_dict(),
            "algorithm": self.algorithm,
            "landmarks": self.landmarks,
            "alpha": self.alpha,
            "slo": self.slo.as_dict(),
        }
        if self.duration_s is not None:
            out["duration_s"] = self.duration_s
        if self.queries is not None:
            out["queries"] = self.queries
        return out


_SPEC_FIELDS = (
    "schema_version", "name", "dataset", "categories", "target_qps",
    "workers", "duration_s", "queries", "seed", "skew", "k", "algorithm",
    "landmarks", "alpha", "slo",
)


def parse_spec(data: Mapping) -> WorkloadSpec:
    """Validate a mapping into a frozen :class:`WorkloadSpec`.

    Every constraint violation raises a
    :class:`~repro.exceptions.QueryError` naming the field — bad skew
    names, zero/negative QPS, negative durations, unknown keys, and
    unknown datasets/algorithms all fail here, before any
    dataset is built or worker forked.
    """
    from repro.core.kpj import ALGORITHMS
    from repro.datasets.registry import available_datasets

    _require(isinstance(data, Mapping), "workload spec must be a mapping")
    _check_keys(data, _SPEC_FIELDS, "workload spec")
    version = data.get("schema_version", SPEC_SCHEMA_VERSION)
    _require(
        version == SPEC_SCHEMA_VERSION,
        f"unsupported spec schema_version {version!r} "
        f"(this build speaks {SPEC_SCHEMA_VERSION})",
    )
    name = data.get("name")
    _require(
        isinstance(name, str) and name.strip(), "spec needs a non-empty name"
    )
    dataset = data.get("dataset")
    _require(
        isinstance(dataset, str) and dataset in available_datasets(),
        f"unknown dataset {dataset!r}; "
        f"choose one of: {', '.join(available_datasets())}",
    )
    categories = data.get("categories")
    _require(
        isinstance(categories, Sequence)
        and not isinstance(categories, (str, bytes))
        and len(categories) > 0
        and all(isinstance(c, str) and c for c in categories),
        "categories must be a non-empty list of category names",
    )
    _require(
        len(set(categories)) == len(categories),
        "categories must not contain duplicates",
    )
    target_qps = _finite_number(data.get("target_qps"), "target_qps")
    _require(target_qps > 0.0, f"target_qps must be > 0, got {target_qps}")
    workers = _int_field(data.get("workers", 1), "workers")
    _require(workers >= 1, f"workers must be >= 1, got {workers}")
    duration_s = data.get("duration_s")
    queries = data.get("queries")
    _require(
        (duration_s is None) != (queries is None),
        "spec needs exactly one of duration_s or queries",
    )
    if duration_s is not None:
        duration_s = _finite_number(duration_s, "duration_s")
        _require(duration_s > 0.0, f"duration_s must be > 0, got {duration_s}")
    if queries is not None:
        queries = _int_field(queries, "queries")
        _require(queries >= 1, f"queries must be >= 1, got {queries}")
    seed = _int_field(data.get("seed", 0), "seed")
    _require(seed >= 0, f"seed must be >= 0, got {seed}")
    skew = CategorySkew.parse(data.get("skew", {"kind": "uniform"}),
                              len(categories))
    k = KDistribution.parse(data.get("k", {"kind": "fixed", "value": 8}))
    algorithm = data.get("algorithm", "iter-bound-spti")
    _require(
        algorithm in ALGORITHMS,
        f"unknown algorithm {algorithm!r}; "
        f"choose one of: {', '.join(sorted(ALGORITHMS))}",
    )
    landmarks = _int_field(data.get("landmarks", 8), "landmarks")
    _require(landmarks >= 0, f"landmarks must be >= 0, got {landmarks}")
    alpha = _finite_number(data.get("alpha", 1.1), "alpha")
    _require(alpha >= 1.0, f"alpha must be >= 1, got {alpha}")
    slo = SLOPolicy.parse(data.get("slo", {}))
    return WorkloadSpec(
        name=name.strip(),
        dataset=dataset,
        categories=tuple(categories),
        target_qps=target_qps,
        workers=workers,
        duration_s=duration_s,
        queries=queries,
        seed=seed,
        skew=skew,
        k=k,
        algorithm=algorithm,
        landmarks=landmarks,
        alpha=alpha,
        slo=slo,
    )


def load_spec(path: str) -> WorkloadSpec:
    """Read and validate a workload spec file (``.json`` or ``.toml``)."""
    try:
        if str(path).endswith(".toml"):
            import tomllib

            with open(path, "rb") as fh:
                data = tomllib.load(fh)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except OSError as exc:
        raise QueryError(f"cannot read workload spec {path!r}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError / TOMLDecodeError
        raise QueryError(f"malformed workload spec {path!r}: {exc}") from None
    return parse_spec(data)


@dataclass(frozen=True)
class Arrival:
    """One scheduled query: when it arrives and what it asks."""

    index: int
    offset_s: float
    source: int
    category: str
    k: int

    def as_dict(self) -> dict:
        """JSON-ready form; the unit :func:`schedule_digest` hashes."""
        return {
            "index": self.index,
            "offset_s": self.offset_s,
            "source": self.source,
            "category": self.category,
            "k": self.k,
        }


def generate_schedule(spec: WorkloadSpec, n_nodes: int) -> list[Arrival]:
    """Expand ``spec`` into its deterministic open-loop arrival schedule.

    One ``random.Random(spec.seed)`` drives every draw in a fixed
    order per arrival — inter-arrival gap (exponential at
    ``target_qps``, i.e. Poisson arrivals), source (uniform over
    ``n_nodes``), category (per the skew's weights), ``k`` (per the
    distribution) — so the same spec against the same dataset yields a
    byte-identical schedule (:func:`schedule_digest`), and a different
    seed yields a different one.  Changing the draw order is a
    schema-version bump.
    """
    _require(n_nodes >= 1, f"schedule needs n_nodes >= 1, got {n_nodes}")
    rng = random.Random(spec.seed)
    weights = list(spec.skew.weights(len(spec.categories)))
    arrivals: list[Arrival] = []
    offset = 0.0
    while True:
        offset += rng.expovariate(spec.target_qps)
        if spec.duration_s is not None and offset > spec.duration_s:
            break
        if spec.queries is not None and len(arrivals) >= spec.queries:
            break
        source = rng.randrange(n_nodes)
        category = rng.choices(spec.categories, weights=weights)[0]
        k = spec.k.draw(rng)
        arrivals.append(
            Arrival(
                index=len(arrivals), offset_s=offset, source=source,
                category=category, k=k,
            )
        )
    return arrivals


def schedule_digest(arrivals: Sequence[Arrival]) -> str:
    """SHA-256 over the canonical JSON of a schedule.

    The replay determinism proof: two runs of the same spec must
    produce the same digest, and the load-test entry records it so a
    baseline comparison is known to have replayed the same arrivals.
    """
    blob = json.dumps(
        [a.as_dict() for a in arrivals], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()
