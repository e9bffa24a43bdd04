"""Query-serving layer: resident workers, batches, and HTTP.

:mod:`repro.server.service` holds the one multi-process path:
:class:`QueryService` runs resident worker processes over
shared-memory CSR state (:mod:`repro.server.shared`), with admission
control, per-query deadlines, least-loaded routing and prepare
coalescing.  ``kpj serve`` exposes a long-lived service over HTTP
(:mod:`repro.server.http`); :func:`run_batch` — behind
:meth:`repro.core.kpj.KPJSolver.solve_batch` and ``kpj batch`` — and
``kpj loadtest`` start one for the call.

All serving surfaces stamp ``QueryResult.timing`` in ``perf_counter``
seconds, the clock of every event in a query's record.
"""

from repro.server.service import (
    BatchQuery,
    DeadlineExceeded,
    QueryService,
    ServiceOverloaded,
    WorkerDied,
    run_batch,
)
from repro.server.shared import SharedCSR, active_segments

__all__ = [
    "BatchQuery",
    "DeadlineExceeded",
    "QueryService",
    "ServiceOverloaded",
    "SharedCSR",
    "WorkerDied",
    "active_segments",
    "run_batch",
]
