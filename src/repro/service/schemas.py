"""Request/response payloads of the service API.

Since the ``repro.api`` redesign the request side *is* the public
:class:`repro.api.ExplainRequest` — the service re-exports it so the wire
format is defined in exactly one place and shared with the CLI, the batch
runner and library callers.  What remains here are the service-specific
response bodies, each built in one function: :func:`job_view` for job
status and :func:`result_view` for finished results, the latter read from
the job's typed :class:`repro.api.ExplainOutcome`.
"""

from __future__ import annotations

from typing import Any, Dict

from ..api import CONFIG_OVERRIDE_FIELDS, ExplainRequest
from ..export import explanation_to_dict

__all__ = [
    "CONFIG_OVERRIDE_FIELDS",
    "ExplainRequest",
    "job_view",
    "result_view",
]


def job_view(job) -> Dict[str, Any]:
    """Body of ``GET /v1/jobs/<id>`` (and of submissions)."""
    progress = job.progress
    return {
        "id": job.id,
        "name": job.name,
        "state": job.state.value,
        "cache_hit": job.cache_hit,
        "store_hit": job.store_hit,
        "priority": job.priority,
        "idempotency_key": job.key,
        "submitted_at": job.submitted_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "error": job.error,
        "progress": None if progress is None else {
            "expansions": progress.expansions,
            "generated_states": progress.generated_states,
            "queue_size": progress.queue_size,
            "best_cost": progress.best_cost,
            "cache_hits": progress.cache_hits,
            "cache_misses": progress.cache_misses,
            "cache_hit_rate": round(progress.cache_hit_rate, 4),
        },
    }


def result_view(job) -> Dict[str, Any]:
    """Body of ``GET /v1/jobs/<id>/result`` (``format=json``).

    The flat legacy fields stay for existing clients; ``timings`` and
    ``provenance`` come from the job's outcome, and ``tier``/``confidence``
    are lifted out of ``provenance`` so budget-aware clients need not parse
    the nested dict.  ``tiers`` is the full chain walk (one entry per
    configured tier), ``None`` for unbudgeted runs, which bypass the chain.
    Raises :class:`ValueError` for a job without an outcome.
    """
    outcome = job.outcome
    if outcome is None:
        raise ValueError(f"job {job.id} has no result")
    return {
        "job_id": job.id,
        "name": job.name,
        "cache_hit": job.cache_hit,
        "cancelled": outcome.cancelled,
        "cost": outcome.cost,
        "trivial_cost": outcome.trivial_cost,
        "compression_ratio": outcome.compression_ratio,
        "expansions": outcome.expansions,
        "generated_states": outcome.generated_states,
        "runtime_seconds": outcome.timings.search_seconds,
        "explanation": explanation_to_dict(outcome.explanation),
        "column_cache": None if outcome.cache is None else outcome.cache.as_dict(),
        "blocking_cache": (
            None if outcome.blocking_cache is None
            else dict(outcome.blocking_cache)
        ),
        "timings": outcome.timings.to_dict(),
        "provenance": outcome.provenance.to_dict(),
        "tier": outcome.provenance.tier,
        "confidence": outcome.provenance.confidence,
        "tiers": (
            None if outcome.tiers is None
            else [attempt.to_dict() for attempt in outcome.tiers]
        ),
    }
