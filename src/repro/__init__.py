"""Affidavit — explaining differences between unaligned table snapshots.

A from-scratch Python reproduction of

    Fink, Meilicke, Stuckenschmidt:
    "Explaining Differences Between Unaligned Table Snapshots", EDBT 2020.

Public API overview
-------------------
Work enters the engine through :mod:`repro.api`, the one request/session
layer shared by the library, the CLI, the HTTP service and the batch runner:

* :class:`~repro.api.ExplainRequest` — a frozen, versioned description of
  one run (snapshots inline or by path, configuration overrides, registry
  subset, engine choice) with ``to_dict``/``from_dict`` round-trips.
* :class:`~repro.api.ExplainSession` (alias :class:`~repro.api.Session`) —
  the fluent facade owning registry resolution, engine dispatch and
  progress/cancellation wiring::

      from repro import ExplainRequest, Session

      outcome = (
          Session()
          .with_config("hid", seed=7)
          .with_functions("identity", "division")
          .explain(ExplainRequest(source_path="old.csv", target_path="new.csv"))
      )
      print(outcome.summary())

* :class:`~repro.api.ExplainOutcome` — the typed result: explanation,
  costs, timings, cache statistics and provenance, serializable like the
  request.
* :meth:`~repro.api.ExplainSession.explain_iter` — the same run streamed as
  typed :class:`~repro.api.SearchEvent` objects.
* :class:`~repro.api.ExplainBudget` / ``Session().with_budget(50)`` —
  budgeted, tiered explanation: the strategy chain walks
  greedy → full search → baseline fallbacks under a wall-clock deadline
  and records the answering tier in the outcome's provenance.

Supporting layers
-----------------
* :mod:`repro.core` — the search engine itself
  (:class:`~repro.core.Affidavit`, Algorithm 1) and the cost model.
* :mod:`repro.functions` — the transformation-function language (Table 1);
  :class:`~repro.functions.FunctionRegistry` is how the pool is extended.
* :mod:`repro.dataio` — schemas, column-oriented tables and CSV I/O.
* :mod:`repro.datagen` — the evaluation protocol's problem-instance
  generator.
* :mod:`repro.service` — the HTTP job service and the batch runner, both
  thin adapters over :mod:`repro.api`.
* :mod:`repro.obs` — structured tracing (:class:`~repro.obs.Tracer`,
  :class:`~repro.obs.Span`), the process-wide metrics registry, and the
  Prometheus/Chrome-trace renderers behind ``/metrics`` and ``--trace``.
* :mod:`repro.baselines`, :mod:`repro.complexity`, :mod:`repro.evaluation`,
  :mod:`repro.export` — comparators, the 3-SAT reduction, the experiment
  harness and report/SQL/JSON exporters.
"""

from .dataio import Schema, Table, read_csv, read_snapshot_pair, write_csv
from .functions import FunctionRegistry, default_registry
from .core import (
    Affidavit,
    AffidavitConfig,
    AffidavitResult,
    Explanation,
    ProblemInstance,
    explanation_cost,
    explanation_from_functions,
    identity_configuration,
    overlap_configuration,
    trivial_explanation,
    trivial_explanation_cost,
)
from .obs import NULL_TRACER, Span, Tracer
from .api import (
    DEFAULT_STRATEGY,
    TIERS,
    ExplainBudget,
    ExplainOutcome,
    ExplainRequest,
    ExplainSession,
    RequestValidationError,
    SearchCompleted,
    SearchEvent,
    SearchProgressed,
    SearchStarted,
    Session,
    StrategyChain,
)

__version__ = "1.1.0"

__all__ = [
    "Schema",
    "Table",
    "read_csv",
    "read_snapshot_pair",
    "write_csv",
    "FunctionRegistry",
    "default_registry",
    "Affidavit",
    "AffidavitConfig",
    "AffidavitResult",
    "Explanation",
    "ProblemInstance",
    "explanation_cost",
    "explanation_from_functions",
    "identity_configuration",
    "overlap_configuration",
    "trivial_explanation",
    "trivial_explanation_cost",
    "ExplainRequest",
    "ExplainOutcome",
    "ExplainSession",
    "Session",
    "ExplainBudget",
    "StrategyChain",
    "TIERS",
    "DEFAULT_STRATEGY",
    "RequestValidationError",
    "SearchEvent",
    "SearchStarted",
    "SearchProgressed",
    "SearchCompleted",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "__version__",
]
