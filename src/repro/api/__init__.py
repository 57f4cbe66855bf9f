"""repro.api — the one explanation API for library, CLI, service and batch.

Every front door of the reproduction funnels work through this package:

* :class:`ExplainRequest` — a frozen, versioned description of one run
  (snapshots inline or by path, configuration overrides, registry subset,
  engine choice, and — since schema v2 — an optional latency ``budget``
  and tier ``strategy``) with ``to_dict`` / ``from_dict`` round-trips.
* :class:`ExplainSession` (alias :class:`Session`) — the fluent facade and
  the one road into a run: :meth:`ExplainSession.prepare` loads a request's
  snapshots and resolves its configuration and function pool into a
  :class:`PreparedRun`, and :meth:`ExplainSession.run` does engine dispatch
  and progress/cancellation wiring:
  ``Session().with_config("hid", seed=7).explain(request)``.
* :class:`ExplainOutcome` — the typed result: explanation + costs +
  timings + cache statistics + provenance (including which strategy tier
  answered, at what confidence), serializable like the request.
* :meth:`ExplainSession.explain_iter` — the same run as a stream of typed
  :class:`SearchEvent` objects (started / progressed / completed).
* :class:`StrategyChain` / :class:`ExplainBudget` — budgeted, tiered
  explanation: ``Session().with_budget(50).explain(request)`` walks
  greedy → full search → baseline fallbacks under a wall-clock deadline
  and reports the answering tier in the outcome's provenance.
* :class:`ResultStore` (:class:`MemoryResultStore`,
  :class:`SqliteResultStore`) keyed by :func:`idempotency_key` — the one
  result cache: exact outcomes under a content key over the parsed tables,
  the resolved configuration and the function pool.  The service's job
  manager owns it; sessions and the strategy chain keep no results.

The HTTP service, the batch runner and the CLI are thin adapters over these
types.  Engine dispatch lives here too: ``engine="columnar"`` (default, the
production engine) and ``engine="rowwise"`` (the reference engine the
equivalence tests and the fuzzer compare against) produce bit-identical
explanations.  The retired ``engine="parallel"`` is still accepted on the
wire and runs the columnar engine.
"""

from .budget import (
    CONFIDENCE_LABELS,
    DEFAULT_STRATEGY,
    TIER_STATUSES,
    TIERS,
    Deadline,
    ExplainBudget,
    TierResult,
)
from .errors import RequestValidationError, UnsupportedSchemaVersion
from .events import (
    EVENT_SCHEMA_VERSION,
    FRAME_KINDS,
    TERMINAL_FRAME_KINDS,
    EventFrame,
    SearchCompleted,
    SearchEvent,
    SearchProgressed,
    SearchStarted,
    heartbeat_frame,
    make_frame,
    parse_frame,
)
from .outcome import (
    ENGINE_BASELINE,
    OUTCOME_SCHEMA_VERSION,
    PROVENANCE_ENGINES,
    ExplainOutcome,
    Provenance,
    Timings,
)
from .request import (
    BASE_CONFIGS,
    CONFIG_OVERRIDE_FIELDS,
    ENGINE_COLUMNAR,
    ENGINE_PARALLEL,
    ENGINE_ROWWISE,
    ENGINES,
    PRIORITY_MAX,
    PRIORITY_MIN,
    SCHEMA_VERSION,
    SCHEMA_VERSION_V2,
    SUPPORTED_SCHEMA_VERSIONS,
    ExplainRequest,
    PreparedRun,
    resolve_config,
    resolve_registry,
)
from .session import ExplainSession, Session
from .store import (
    MemoryResultStore,
    ResultStore,
    SqliteResultStore,
    StoreStats,
    idempotency_key,
    open_store,
)
from .strategies import StrategyChain

__all__ = [
    "RequestValidationError",
    "UnsupportedSchemaVersion",
    "SearchEvent",
    "SearchStarted",
    "SearchProgressed",
    "SearchCompleted",
    "EVENT_SCHEMA_VERSION",
    "FRAME_KINDS",
    "TERMINAL_FRAME_KINDS",
    "EventFrame",
    "make_frame",
    "heartbeat_frame",
    "parse_frame",
    "ExplainOutcome",
    "Provenance",
    "Timings",
    "OUTCOME_SCHEMA_VERSION",
    "ENGINE_BASELINE",
    "PROVENANCE_ENGINES",
    "ExplainRequest",
    "PreparedRun",
    "resolve_config",
    "resolve_registry",
    "BASE_CONFIGS",
    "CONFIG_OVERRIDE_FIELDS",
    "ENGINES",
    "ENGINE_COLUMNAR",
    "ENGINE_PARALLEL",
    "ENGINE_ROWWISE",
    "PRIORITY_MIN",
    "PRIORITY_MAX",
    "SCHEMA_VERSION",
    "SCHEMA_VERSION_V2",
    "SUPPORTED_SCHEMA_VERSIONS",
    "ExplainSession",
    "Session",
    "ExplainBudget",
    "Deadline",
    "TierResult",
    "TIERS",
    "TIER_STATUSES",
    "CONFIDENCE_LABELS",
    "DEFAULT_STRATEGY",
    "StrategyChain",
    "ResultStore",
    "MemoryResultStore",
    "SqliteResultStore",
    "StoreStats",
    "idempotency_key",
    "open_store",
]
