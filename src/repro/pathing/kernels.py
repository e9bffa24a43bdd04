"""Kernel selection: dict-based vs flat-array search substrates.

Every search entry point (``single_source_distances``,
``shortest_path``, ``constrained_shortest_path``, the A* kernels, the
SPT builders) accepts ``kernel="dict"`` or ``kernel="flat"``.  Passing
``None`` (the default) defers to the *ambient* kernel, a context
variable that :class:`~repro.core.kpj.KPJSolver` sets for the duration
of a query — which is how every registry algorithm, ``da`` through
``iter-bound-spti``, runs on either substrate without threading a
parameter through each implementation.

``dict`` is the pure-CPython arrangement (dict state, tuple adjacency)
and remains the default; ``flat`` routes to
:mod:`repro.pathing.flat`'s CSR kernels (scipy-accelerated where
available).  The active choice is recorded per search in
:class:`~repro.core.stats.SearchStats` dispatch counters.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["KERNELS", "DEFAULT_KERNEL", "active_kernel", "resolve_kernel", "use_kernel"]

#: Names accepted by every ``kernel=`` parameter.
KERNELS = ("dict", "flat")

DEFAULT_KERNEL = "dict"

_ACTIVE: ContextVar[str] = ContextVar("repro_kernel", default=DEFAULT_KERNEL)


def active_kernel() -> str:
    """The ambient kernel used when a call site passes ``kernel=None``."""
    return _ACTIVE.get()


def resolve_kernel(kernel: str | None) -> str:
    """Validate an explicit choice or fall back to the ambient kernel.

    Raises
    ------
    ValueError
        For a name outside :data:`KERNELS`.
    """
    if kernel is None:
        return _ACTIVE.get()
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose one of: {', '.join(KERNELS)}"
        )
    return kernel


@contextmanager
def use_kernel(kernel: str):
    """Set the ambient kernel for the dynamic extent of a ``with`` block."""
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose one of: {', '.join(KERNELS)}"
        )
    token = _ACTIVE.set(kernel)
    try:
        yield
    finally:
        _ACTIVE.reset(token)
