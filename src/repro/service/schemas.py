"""Typed request/response payloads of the service API.

Since the ``repro.api`` redesign the request side *is* the public
:class:`repro.api.ExplainRequest` — the service re-exports it (plus its
validation error) so the wire format is defined in exactly one place and
shared with the CLI, the batch runner and library callers.  What remains
here are the service-specific response shapes: :class:`JobView` for job
status and :class:`ResultView` for finished results, the latter wrapping the
job's typed :class:`repro.api.ExplainOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..api import CONFIG_OVERRIDE_FIELDS, ExplainRequest, RequestValidationError
from ..export import explanation_to_dict

#: Backwards-compatible alias: the server still catches ``ValidationError``.
ValidationError = RequestValidationError

__all__ = [
    "CONFIG_OVERRIDE_FIELDS",
    "ExplainRequest",
    "JobView",
    "ResultView",
    "ValidationError",
]


@dataclass(frozen=True)
class JobView:
    """Response shape of ``GET /v1/jobs/<id>`` (and of submissions)."""

    id: str
    name: str
    state: str
    cache_hit: bool
    store_hit: bool
    priority: int
    idempotency_key: str
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    error: Optional[str]
    progress: Optional[Dict[str, Any]]

    @classmethod
    def from_job(cls, job) -> "JobView":
        progress = job.progress
        return cls(
            id=job.id,
            name=job.name,
            state=job.state.value,
            cache_hit=job.cache_hit,
            store_hit=job.store_hit,
            priority=job.priority,
            idempotency_key=job.key,
            submitted_at=job.submitted_at,
            started_at=job.started_at,
            finished_at=job.finished_at,
            error=job.error,
            progress=None if progress is None else {
                "expansions": progress.expansions,
                "generated_states": progress.generated_states,
                "queue_size": progress.queue_size,
                "best_cost": progress.best_cost,
                "cache_hits": progress.cache_hits,
                "cache_misses": progress.cache_misses,
                "cache_hit_rate": round(progress.cache_hit_rate, 4),
            },
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "cache_hit": self.cache_hit,
            "store_hit": self.store_hit,
            "priority": self.priority,
            "idempotency_key": self.idempotency_key,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "progress": self.progress,
        }


@dataclass(frozen=True)
class ResultView:
    """JSON body of ``GET /v1/jobs/<id>/result`` (``format=json``).

    The flat legacy fields stay for existing clients; ``timings`` and
    ``provenance`` come from the job's :class:`repro.api.ExplainOutcome`.
    """

    job_id: str
    name: str
    cache_hit: bool
    cancelled: bool
    cost: float
    trivial_cost: float
    compression_ratio: float
    expansions: int
    generated_states: int
    runtime_seconds: float
    explanation: Dict[str, Any]
    column_cache: Optional[Dict[str, Any]] = None
    blocking_cache: Optional[Dict[str, int]] = None
    timings: Optional[Dict[str, Any]] = None
    provenance: Optional[Dict[str, Any]] = None
    #: Which strategy tier answered and at what confidence — lifted out of
    #: ``provenance`` so budget-aware clients need not parse the nested dict.
    tier: Optional[str] = None
    confidence: Optional[str] = None
    #: The full chain walk (one entry per configured tier, with status and
    #: skip/timeout reason); ``None`` for unbudgeted runs, which bypass the
    #: chain.
    tiers: Optional[Any] = None

    @classmethod
    def from_job(cls, job) -> "ResultView":
        outcome = job.outcome
        if outcome is None:
            raise ValueError(f"job {job.id} has no result")
        return cls(
            job_id=job.id,
            name=job.name,
            cache_hit=job.cache_hit,
            cancelled=outcome.cancelled,
            cost=outcome.cost,
            trivial_cost=outcome.trivial_cost,
            compression_ratio=outcome.compression_ratio,
            expansions=outcome.expansions,
            generated_states=outcome.generated_states,
            runtime_seconds=outcome.timings.search_seconds,
            explanation=explanation_to_dict(outcome.explanation),
            column_cache=None if outcome.cache is None else outcome.cache.as_dict(),
            blocking_cache=(
                None if outcome.blocking_cache is None
                else dict(outcome.blocking_cache)
            ),
            timings=outcome.timings.to_dict(),
            provenance=outcome.provenance.to_dict(),
            tier=outcome.provenance.tier,
            confidence=outcome.provenance.confidence,
            tiers=(
                None if outcome.tiers is None
                else [attempt.to_dict() for attempt in outcome.tiers]
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "name": self.name,
            "cache_hit": self.cache_hit,
            "cancelled": self.cancelled,
            "cost": self.cost,
            "trivial_cost": self.trivial_cost,
            "compression_ratio": self.compression_ratio,
            "expansions": self.expansions,
            "generated_states": self.generated_states,
            "runtime_seconds": self.runtime_seconds,
            "explanation": self.explanation,
            "column_cache": self.column_cache,
            "blocking_cache": self.blocking_cache,
            "timings": self.timings,
            "provenance": self.provenance,
            "tier": self.tier,
            "confidence": self.confidence,
            "tiers": self.tiers,
        }
