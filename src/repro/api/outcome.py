"""Typed results of an explanation run.

:class:`ExplainOutcome` is what every front door returns: the explanation and
its costs, wall-clock timings, column-cache statistics, and provenance (which
engine, which base configuration, which function pool).  Like the request it
round-trips through a versioned dict (:meth:`ExplainOutcome.to_dict` /
:meth:`ExplainOutcome.from_dict`), which is what the HTTP service and the
batch runner serialize.  The raw :class:`~repro.core.AffidavitResult` (and
the problem instance) stay attached as non-compared references for callers
that need the full search state or want to render reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core import AffidavitResult, ColumnCacheStats, Explanation, ProblemInstance
from ..export import explanation_from_dict, explanation_to_dict
from ..obs import Span, phase_totals
from .budget import (
    CONFIDENCE_EXACT,
    CONFIDENCE_LABELS,
    CONFIDENCE_PARTIAL,
    TIER_FULL,
    TIERS,
    TierResult,
)
from .errors import RequestValidationError, UnsupportedSchemaVersion
from .request import ENGINES, SCHEMA_VERSION, ExplainRequest, PreparedRun

#: Version tag of the serialized outcome format.
OUTCOME_SCHEMA_VERSION = "affidavit.outcome/v1"

#: Engines a provenance may name: the search engines plus ``"baseline"``,
#: the pseudo-engine of the non-searching baseline explainers.  The retired
#: ``"parallel"`` stays valid because stores written by earlier builds hold it.
ENGINE_BASELINE = "baseline"
PROVENANCE_ENGINES = ENGINES + (ENGINE_BASELINE,)


def _seconds_field(value: Any, label: str) -> float:
    """A wall-clock duration off the wire: a finite, non-negative number.

    Anything else — missing, a string, NaN, infinity, a negative — is a
    malformed payload, not a zero; silently coercing used to mislabel
    corrupt timings as instant runs.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestValidationError(f"{label} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number) or number < 0.0:
        raise RequestValidationError(
            f"{label} must be finite and non-negative, got {value!r}"
        )
    return number


@dataclass(frozen=True)
class Timings:
    """Wall-clock breakdown of one run.

    ``phases`` is the optional fine-grained breakdown derived from the span
    trace when the run was traced: total seconds per phase name (inclusive —
    a phase's total covers its sub-phases), stored as a sorted tuple so
    equal timings stay equal through serialization.
    """

    load_seconds: float
    search_seconds: float
    total_seconds: float
    phases: Tuple[Tuple[str, float], ...] = ()

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """The per-phase breakdown as a plain dict (empty when untraced)."""
        return dict(self.phases)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "load_seconds": self.load_seconds,
            "search_seconds": self.search_seconds,
            "total_seconds": self.total_seconds,
        }
        if self.phases:
            payload["phases"] = {name: seconds for name, seconds in self.phases}
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Timings":
        if not isinstance(payload, Mapping):
            raise RequestValidationError(
                f"timings payload must be a JSON object, got {type(payload).__name__}"
            )
        values = {}
        for key in ("load_seconds", "search_seconds", "total_seconds"):
            if key not in payload:
                raise RequestValidationError(f"timings payload is missing {key!r}")
            values[key] = _seconds_field(payload[key], f"timings {key}")
        raw_phases = payload.get("phases", {})
        if not isinstance(raw_phases, Mapping):
            raise RequestValidationError("timings phases must be a JSON object")
        phases = tuple(sorted(
            (str(name), _seconds_field(seconds, f"timings phase {name!r}"))
            for name, seconds in raw_phases.items()
        ))
        return cls(phases=phases, **values)


@dataclass(frozen=True)
class Provenance:
    """Where an outcome came from: engine, configuration and function pool —
    and, since the strategy chain, which tier answered at what confidence."""

    api_version: str
    engine: str
    base_config: Optional[str]
    registry: Tuple[str, ...]
    instance_name: str
    n_source_records: int
    n_target_records: int
    n_attributes: int
    seed: int
    #: Which strategy tier produced the answer; ``"full"`` for plain
    #: (unbudgeted) runs, which makes pre-tier payloads round-trip.
    tier: str = TIER_FULL
    #: Confidence label of the answer (see
    #: :data:`repro.api.budget.CONFIDENCE_LABELS`).
    confidence: str = CONFIDENCE_EXACT

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api_version": self.api_version,
            "engine": self.engine,
            "base_config": self.base_config,
            "registry": list(self.registry),
            "instance_name": self.instance_name,
            "n_source_records": self.n_source_records,
            "n_target_records": self.n_target_records,
            "n_attributes": self.n_attributes,
            "seed": self.seed,
            "tier": self.tier,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Provenance":
        # The engine string is provenance, not preference: a missing or
        # unknown value must fail loudly instead of silently relabelling the
        # run as columnar.  The tier and confidence labels get the same
        # strictness — a payload claiming an unknown tier is corrupt, not a
        # full-search run.
        engine = payload.get("engine")
        if engine not in PROVENANCE_ENGINES:
            raise RequestValidationError(
                f"provenance engine must be one of {PROVENANCE_ENGINES}, got {engine!r}"
            )
        tier = payload.get("tier", TIER_FULL)
        if tier not in TIERS:
            raise RequestValidationError(
                f"provenance tier must be one of {TIERS}, got {tier!r}"
            )
        confidence = payload.get("confidence", CONFIDENCE_EXACT)
        if confidence not in CONFIDENCE_LABELS:
            raise RequestValidationError(
                f"provenance confidence must be one of {CONFIDENCE_LABELS}, "
                f"got {confidence!r}"
            )
        return cls(
            api_version=payload.get("api_version", SCHEMA_VERSION),
            engine=engine,
            base_config=payload.get("base_config"),
            registry=tuple(payload.get("registry", ())),
            instance_name=payload.get("instance_name", "instance"),
            n_source_records=int(payload.get("n_source_records", 0)),
            n_target_records=int(payload.get("n_target_records", 0)),
            n_attributes=int(payload.get("n_attributes", 0)),
            seed=int(payload.get("seed", 0)),
            tier=tier,
            confidence=confidence,
        )


def _cache_stats_from_dict(payload: Mapping[str, Any]) -> ColumnCacheStats:
    known = {spec.name for spec in fields(ColumnCacheStats)}
    return ColumnCacheStats(**{k: v for k, v in payload.items() if k in known})


@dataclass(frozen=True)
class ExplainOutcome:
    """Outcome of one explanation run, as returned by every entry point."""

    explanation: Explanation
    cost: float
    trivial_cost: float
    expansions: int
    generated_states: int
    cancelled: bool
    timings: Timings
    provenance: Provenance
    #: Final column-cache counters (``None`` for deserialized legacy results).
    cache: Optional[ColumnCacheStats] = None
    #: Final blocking-LRU counters of the run (hits / misses / entries /
    #: max_entries); ``None`` for legacy payloads that never carried them.
    blocking_cache: Optional[Dict[str, int]] = None
    #: Root span of the run when tracing was enabled (the per-phase tree the
    #: CLI ``--trace`` flag exports); ``None`` for untraced runs.
    trace: Optional[Span] = field(default=None, repr=False)
    #: The result-store key (:func:`repro.api.store.idempotency_key`) of
    #: runs a store keyed — service jobs and store hits; ``None`` otherwise.
    idempotency_key: Optional[str] = None
    #: The originating request, when the run was request-driven.
    request: Optional[ExplainRequest] = None
    #: The strategy chain's attempt log, when a chain produced this outcome
    #: (``None`` for plain runs).  The per-attempt candidate outcomes do not
    #: survive serialization; the verdicts, timings and details do.
    tiers: Optional[Tuple[TierResult, ...]] = field(default=None, compare=False)
    #: The raw search result — full end state, config, everything.  Excluded
    #: from comparison so a serialization round-trip stays an equality.
    result: Optional[AffidavitResult] = field(default=None, compare=False, repr=False)
    #: The materialised problem instance, retained so callers can render
    #: reports / SQL without re-reading the snapshots.
    instance: Optional[ProblemInstance] = field(default=None, compare=False, repr=False)

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    @property
    def compression_ratio(self) -> float:
        """Cost relative to the trivial explanation (< 1 means compression)."""
        if self.trivial_cost == 0:
            return 1.0
        return self.cost / self.trivial_cost

    def summary(self) -> str:
        lines = [
            f"cost                : {self.cost:.1f} (trivial {self.trivial_cost:.1f}, "
            f"ratio {self.compression_ratio:.2f})",
            f"engine              : {self.provenance.engine} "
            f"(registry: {len(self.provenance.registry)} families)",
            f"tier                : {self.provenance.tier} "
            f"(confidence: {self.provenance.confidence})",
            f"expansions          : {self.expansions} "
            f"(generated {self.generated_states} states)",
            f"runtime             : {self.timings.search_seconds:.3f}s search, "
            f"{self.timings.total_seconds:.3f}s total",
        ]
        if self.tiers:
            walked = ", ".join(
                f"{attempt.tier}:{attempt.status}" for attempt in self.tiers
            )
            lines.append(f"strategy chain      : {walked}")
        if self.cache is not None and self.cache.lookups:
            lines.append(
                f"column cache        : {self.cache.hits} hits / "
                f"{self.cache.lookups} lookups ({self.cache.hit_rate:.0%} hit rate)"
            )
        if self.blocking_cache:
            hits = self.blocking_cache.get("hits", 0)
            lookups = hits + self.blocking_cache.get("misses", 0)
            if lookups:
                lines.append(
                    f"blocking cache      : {hits} hits / {lookups} lookups "
                    f"({hits / lookups:.0%} hit rate)"
                )
        lines.append(self.explanation.summary())
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_result(cls, result: AffidavitResult, run: PreparedRun, *,
                    trace: Optional[Span] = None,
                    tier: str = TIER_FULL,
                    confidence: Optional[str] = None) -> "ExplainOutcome":
        """Wrap the raw :class:`~repro.core.AffidavitResult` of *run*.

        *tier* and *confidence* label where the result came from when a
        strategy chain produced it; by default a completed search is
        ``full``/``exact`` and a cancelled one ``full``/``partial``.
        """
        request, instance, load_seconds = run.request, run.instance, run.load_seconds
        if confidence is None:
            confidence = CONFIDENCE_PARTIAL if result.cancelled else CONFIDENCE_EXACT
        provenance = Provenance(
            api_version=SCHEMA_VERSION if request is None else request.schema_version,
            # The engine that ran; a retired "parallel" request reports
            # "columnar".
            engine=result.engine,
            base_config=run.base_config,
            registry=tuple(instance.registry.names),
            instance_name=instance.name,
            n_source_records=instance.n_source_records,
            n_target_records=instance.n_target_records,
            n_attributes=instance.n_attributes,
            seed=result.config.seed,
            tier=tier,
            confidence=confidence,
        )
        phases = tuple(sorted(phase_totals(trace).items())) if trace is not None else ()
        blocking_cache = (
            dict(result.blocking_cache) if result.blocking_cache is not None else None
        )
        return cls(
            explanation=result.explanation,
            cost=result.cost,
            trivial_cost=result.trivial_cost,
            expansions=result.expansions,
            generated_states=result.generated_states,
            cancelled=result.cancelled,
            timings=Timings(
                load_seconds=load_seconds,
                search_seconds=result.runtime_seconds,
                total_seconds=load_seconds + result.runtime_seconds,
                phases=phases,
            ),
            provenance=provenance,
            cache=result.cache_stats,
            blocking_cache=blocking_cache,
            trace=trace,
            request=request,
            result=result,
            instance=instance,
        )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering, tagged with the outcome schema version."""
        return {
            "schema_version": OUTCOME_SCHEMA_VERSION,
            "explanation": explanation_to_dict(self.explanation),
            "cost": self.cost,
            "trivial_cost": self.trivial_cost,
            "compression_ratio": self.compression_ratio,
            "expansions": self.expansions,
            "generated_states": self.generated_states,
            "cancelled": self.cancelled,
            "timings": self.timings.to_dict(),
            "provenance": self.provenance.to_dict(),
            "column_cache": None if self.cache is None else self.cache.as_dict(),
            "blocking_cache": (
                None if self.blocking_cache is None else dict(self.blocking_cache)
            ),
            "trace": None if self.trace is None else self.trace.to_dict(),
            "idempotency_key": self.idempotency_key,
            "request": None if self.request is None else self.request.to_dict(),
            "tiers": (
                None if self.tiers is None
                else [attempt.to_dict() for attempt in self.tiers]
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExplainOutcome":
        """Rebuild an outcome from :meth:`to_dict` output.

        The raw search result and the problem instance are process-local and
        do not survive serialization — both come back as ``None``.
        """
        if not isinstance(payload, Mapping):
            raise RequestValidationError("outcome payload must be a JSON object")
        version = payload.get("schema_version", OUTCOME_SCHEMA_VERSION)
        if version != OUTCOME_SCHEMA_VERSION:
            raise UnsupportedSchemaVersion(
                f"unsupported outcome schema_version {version!r} "
                f"(this build speaks {OUTCOME_SCHEMA_VERSION!r})"
            )
        cache = payload.get("column_cache")
        request = payload.get("request")
        blocking_cache = payload.get("blocking_cache")
        if blocking_cache is not None:
            if not isinstance(blocking_cache, Mapping):
                raise RequestValidationError("blocking_cache must be a JSON object")
            blocking_cache = {
                str(key): int(value) for key, value in blocking_cache.items()
            }
        raw_tiers = payload.get("tiers")
        tiers = None
        if raw_tiers is not None:
            if not isinstance(raw_tiers, (list, tuple)):
                raise RequestValidationError("tiers must be a JSON array")
            tiers = tuple(TierResult.from_dict(attempt) for attempt in raw_tiers)
        raw_trace = payload.get("trace")
        trace = None
        if raw_trace is not None:
            try:
                trace = Span.from_dict(raw_trace)
            except ValueError as error:
                raise RequestValidationError(
                    f"invalid trace payload: {error}"
                ) from None
        return cls(
            explanation=explanation_from_dict(payload["explanation"]),
            cost=float(payload["cost"]),
            trivial_cost=float(payload["trivial_cost"]),
            expansions=int(payload.get("expansions", 0)),
            generated_states=int(payload.get("generated_states", 0)),
            cancelled=bool(payload.get("cancelled", False)),
            timings=Timings.from_dict(payload.get("timings", {})),
            provenance=Provenance.from_dict(payload.get("provenance", {})),
            cache=None if cache is None else _cache_stats_from_dict(cache),
            blocking_cache=blocking_cache,
            trace=trace,
            idempotency_key=payload.get("idempotency_key"),
            request=None if request is None else ExplainRequest.from_dict(request),
            tiers=tiers,
        )
