"""repro.service — a concurrent explanation-job subsystem.

The CLI runs one blocking search per invocation; production data-profiling
instead wraps the expensive Affidavit analysis behind a long-running service.
This package provides that serving layer with stdlib means only:

* :mod:`.jobs` — a :class:`~repro.service.jobs.JobManager` that prepares
  and runs every request through one :class:`~repro.api.ExplainSession`,
  with a priority worker queue, per-job event buffers, admission control, cooperative
  cancellation and one result store (re-exported here from
  :mod:`repro.api.store`): repeated submissions of the same content —
  same parsed tables, resolved configuration and function pool, inline or
  by path — return instantly, an in-process :class:`MemoryResultStore` by
  default or a shared :class:`SqliteResultStore` that lets N replicas
  deduplicate work and restarted replicas keep their results,
* :mod:`.schemas` — the request type and the job and result response bodies,
* :mod:`.server` — the HTTP API (``/healthz``, ``/v1/explain``,
  ``/v1/jobs/...`` including the ``/events`` stream) on
  :class:`http.server.ThreadingHTTPServer`, answering every failure with a
  versioned ``affidavit.error/v1`` envelope,
* :mod:`.batch` — a bulk front-end that fans a directory of snapshot pairs
  through the same job manager.
"""

from ..api import (
    MemoryResultStore,
    ResultStore,
    SqliteResultStore,
    StoreStats,
    idempotency_key,
    open_store,
)
from .jobs import (
    AdmissionError,
    Job,
    JobEventBuffer,
    JobManager,
    JobNotFound,
    JobState,
)
from .schemas import ExplainRequest, job_view, result_view
from .server import (
    CLIENT_ID_HEADER,
    ERROR_SCHEMA_VERSION,
    AffidavitHTTPServer,
    ClientQuotas,
    create_server,
    error_envelope,
    serve_forever,
)
from .batch import BatchOutcome, discover_pairs, run_batch

__all__ = [
    "idempotency_key",
    "AdmissionError",
    "Job",
    "JobEventBuffer",
    "JobManager",
    "JobNotFound",
    "JobState",
    "ExplainRequest",
    "job_view",
    "result_view",
    "AffidavitHTTPServer",
    "ClientQuotas",
    "CLIENT_ID_HEADER",
    "ERROR_SCHEMA_VERSION",
    "error_envelope",
    "create_server",
    "serve_forever",
    "MemoryResultStore",
    "ResultStore",
    "SqliteResultStore",
    "StoreStats",
    "open_store",
    "BatchOutcome",
    "discover_pairs",
    "run_batch",
]
