"""The process-wide serving epoch.

Every serving surface — sequential batches, the resident-worker
service, the load-test replay — stamps ``QueryResult.timing`` offsets
relative to **one** origin so histograms built from different
surfaces (or from successive batches) share a timeline.  Before this
module each batch was rebased onto its own start, which made
``enqueued_at_s`` reset to ~0 every batch: two batches' offsets were
incomparable, and batch queue-wait distributions could not be
overlaid on the service's.

``perf_counter`` is a single machine-wide monotonic clock on every
platform that can fork, so the epoch survives the fork boundary: a
worker's ``started_at_s`` minus the parent's ``enqueued_at_s`` is a
real queue wait, and both rebase against the same origin.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["service_epoch", "since_epoch"]

_EPOCH: float | None = None


def service_epoch() -> float:
    """The serving time origin, pinned at first use.

    The first call in a process fixes the origin; every later call
    (including from forked children, which inherit the pinned value)
    returns the same number, so offsets computed anywhere in the
    process family are mutually comparable.
    """
    global _EPOCH
    if _EPOCH is None:
        _EPOCH = perf_counter()
    return _EPOCH


def since_epoch(timestamp: float | None = None) -> float:
    """``timestamp`` (a ``perf_counter`` reading; default: now) as an
    offset from the serving epoch."""
    origin = service_epoch()
    if timestamp is None:
        timestamp = perf_counter()
    return timestamp - origin
