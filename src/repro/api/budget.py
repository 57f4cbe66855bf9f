"""Latency budgets and the tier/confidence vocabulary of budgeted runs.

This is the leaf module of the v2 request API: :class:`ExplainBudget` is the
wire-format budget a ``affidavit.request/v2`` payload may carry, and the
``TIER_*`` / ``CONFIDENCE_*`` constants are the closed vocabularies that
:class:`~repro.api.outcome.Provenance` validates against (mirroring the
engine-name strictness).  The chain that interprets budgets lives in
:mod:`repro.api.strategies`; nothing here imports the engine, so the request
and outcome modules can use these types without cycles.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Union

from .errors import RequestValidationError

#: Tier names of the strategy chain.  The provenance of every outcome names
#: the tier that answered; unknown names are rejected on deserialization.
#: ``cache`` is retired: the chain keeps no result store, so a strategy that
#: names it logs the tier as skipped.  The name stays valid so stored
#: requests, outcomes and event frames that carry it still parse.
TIER_CACHE = "cache"
TIER_GREEDY = "greedy"
TIER_FULL = "full"
TIER_KEYED_DIFF = "keyed_diff"
TIER_SIMILARITY = "similarity_linker"
TIER_TRIVIAL = "trivial"

TIERS = (
    TIER_CACHE,
    TIER_GREEDY,
    TIER_FULL,
    TIER_KEYED_DIFF,
    TIER_SIMILARITY,
    TIER_TRIVIAL,
)

#: The default strategy: every live tier, cheapest-to-secure-an-answer first.
DEFAULT_STRATEGY = tuple(tier for tier in TIERS if tier != TIER_CACHE)

#: Confidence labels, best to worst.  ``exact`` — an uninterrupted full
#: search; ``cached`` — a previously computed exact answer (written by
#: builds whose chain had a ``cache`` tier; still parsed); ``approximate``
#: — the width/depth-capped greedy search; ``partial`` — a full search that
#: hit its deadline and was finalised from its best-so-far state;
#: ``baseline`` — a non-learning baseline (keyed diff / similarity linker);
#: ``trivial`` — the always-valid delete-everything explanation, or a
#: greedy, deadline-cut or baseline answer that costs no less than it.
CONFIDENCE_EXACT = "exact"
CONFIDENCE_CACHED = "cached"
CONFIDENCE_APPROXIMATE = "approximate"
CONFIDENCE_PARTIAL = "partial"
CONFIDENCE_BASELINE = "baseline"
CONFIDENCE_TRIVIAL = "trivial"

CONFIDENCE_LABELS = (
    CONFIDENCE_EXACT,
    CONFIDENCE_CACHED,
    CONFIDENCE_APPROXIMATE,
    CONFIDENCE_PARTIAL,
    CONFIDENCE_BASELINE,
    CONFIDENCE_TRIVIAL,
)

#: Labels that give way to ``trivial`` on an answer no cheaper than the
#: trivial explanation.  ``exact`` (and ``cached``, a stored exact answer)
#: stay: at the trivial cost they say that nothing cheaper exists.
_RELABELLED_AT_TRIVIAL_COST = (
    CONFIDENCE_APPROXIMATE,
    CONFIDENCE_PARTIAL,
    CONFIDENCE_BASELINE,
)


def confidence_by_content(confidence: str, cost: float,
                          trivial_cost: float) -> str:
    """The label an answer of *cost* earns: *confidence*, or ``trivial``
    when an approximate, partial or baseline answer is no cheaper than the
    trivial explanation."""
    if confidence in _RELABELLED_AT_TRIVIAL_COST and cost >= trivial_cost:
        return CONFIDENCE_TRIVIAL
    return confidence


@dataclass(frozen=True)
class ExplainBudget:
    """How long (and how well) one explanation request may run.

    ``deadline_ms`` is the wall-clock budget of the whole strategy chain,
    measured from the moment the chain starts walking (snapshot loading has
    already happened by then).  ``None`` means unlimited — the chain still
    walks its tiers, but nothing is ever cut off.

    ``max_compression_ratio`` is an optional quality hint: a tier's answer
    with ``cost / trivial_cost`` above this ratio does not satisfy the
    caller, so the chain keeps walking (budget permitting) instead of
    stopping at the first answer.
    """

    deadline_ms: Optional[float] = None
    max_compression_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for label, value in (("deadline_ms", self.deadline_ms),
                             ("max_compression_ratio", self.max_compression_ratio)):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise RequestValidationError(
                    f"budget {label} must be a number or null, got {value!r}"
                )
            if not math.isfinite(float(value)) or float(value) <= 0.0:
                raise RequestValidationError(
                    f"budget {label} must be a finite positive number, got {value!r}"
                )

    @property
    def deadline_seconds(self) -> Optional[float]:
        return None if self.deadline_ms is None else float(self.deadline_ms) / 1000.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "deadline_ms": None if self.deadline_ms is None else float(self.deadline_ms),
            "max_compression_ratio": (
                None if self.max_compression_ratio is None
                else float(self.max_compression_ratio)
            ),
        }

    @classmethod
    def from_dict(cls, payload: Union[Mapping[str, Any], int, float]) -> "ExplainBudget":
        """Build a budget from its wire form.

        A bare number is shorthand for ``{"deadline_ms": <number>}`` so that
        ``"budget": 50`` works in hand-written payloads.
        """
        if isinstance(payload, bool):
            raise RequestValidationError(f"budget must be a number or object, got {payload!r}")
        if isinstance(payload, (int, float)):
            return cls(deadline_ms=float(payload))
        if not isinstance(payload, Mapping):
            raise RequestValidationError(
                f"budget must be a number or object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"deadline_ms", "max_compression_ratio"}
        if unknown:
            raise RequestValidationError(f"unknown budget fields: {sorted(unknown)}")
        return cls(
            deadline_ms=payload.get("deadline_ms"),
            max_compression_ratio=payload.get("max_compression_ratio"),
        )


#: What happened to one tier of a chain walk.  ``answered`` — the tier
#: produced a candidate outcome; ``skipped`` — the tier did not apply
#: (cache miss, or a fallback that was not needed); ``timeout`` — the
#: budget was exhausted before the tier could start; ``failed`` — the tier
#: raised and the chain moved on.
STATUS_ANSWERED = "answered"
STATUS_SKIPPED = "skipped"
STATUS_TIMEOUT = "timeout"
STATUS_FAILED = "failed"

TIER_STATUSES = (STATUS_ANSWERED, STATUS_SKIPPED, STATUS_TIMEOUT, STATUS_FAILED)


@dataclass(frozen=True)
class TierResult:
    """One tier's verdict during a chain walk.

    The chain's winning outcome carries the full attempt list
    (``outcome.tiers``), so callers can see which tier answered and why the
    others were skipped or timed out.  ``outcome`` (the tier's candidate, when it produced one)
    is process-local and excluded from comparison and serialization.
    """

    tier: str
    status: str
    confidence: Optional[str] = None
    elapsed_seconds: float = 0.0
    detail: str = ""
    outcome: Optional[Any] = field(default=None, compare=False, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tier": self.tier,
            "status": self.status,
            "confidence": self.confidence,
            "elapsed_seconds": self.elapsed_seconds,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TierResult":
        if not isinstance(payload, Mapping):
            raise RequestValidationError("tier result payload must be a JSON object")
        tier = payload.get("tier")
        if tier not in TIERS:
            raise RequestValidationError(
                f"tier result tier must be one of {TIERS}, got {tier!r}"
            )
        status = payload.get("status")
        if status not in TIER_STATUSES:
            raise RequestValidationError(
                f"tier result status must be one of {TIER_STATUSES}, got {status!r}"
            )
        confidence = payload.get("confidence")
        if confidence is not None and confidence not in CONFIDENCE_LABELS:
            raise RequestValidationError(
                f"tier result confidence must be one of {CONFIDENCE_LABELS}, "
                f"got {confidence!r}"
            )
        elapsed = payload.get("elapsed_seconds", 0.0)
        if isinstance(elapsed, bool) or not isinstance(elapsed, (int, float)):
            raise RequestValidationError(
                f"tier result elapsed_seconds must be a number, got {elapsed!r}"
            )
        return cls(
            tier=tier,
            status=status,
            confidence=confidence,
            elapsed_seconds=float(elapsed),
            detail=str(payload.get("detail", "")),
        )


class Deadline:
    """A monotonic wall-clock deadline with a cooperative stop predicate.

    The predicate is handed to the search as its ``should_stop`` run
    argument (through :meth:`ExplainSession.with_cancellation`), which is
    how budget enforcement rides the existing cancellation machinery
    instead of needing engine changes.
    """

    def __init__(self, seconds: Optional[float], *,
                 clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._at = None if seconds is None else clock() + seconds

    #: Fraction of a bounded budget held back for result finalisation.
    #: Enforcement is cooperative — the engines poll the predicate between
    #: expansions and between per-attribute inductions, so they can overrun
    #: the inner deadline by one induction; the reserve absorbs that plus
    #: the cost of materialising the best-so-far explanation, keeping the
    #: caller-visible wall time inside the caller's budget.
    FINALISE_RESERVE = 0.25

    @classmethod
    def from_budget(cls, budget: Optional[ExplainBudget], *,
                    reserve: float = 0.0) -> "Deadline":
        seconds = None if budget is None else budget.deadline_seconds
        if seconds is not None and reserve:
            seconds *= 1.0 - reserve
        return cls(seconds)

    @property
    def bounded(self) -> bool:
        return self._at is not None

    def remaining(self) -> float:
        """Seconds left; ``inf`` for an unbounded deadline."""
        if self._at is None:
            return math.inf
        return self._at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def should_stop(self) -> Optional[Callable[[], bool]]:
        """The per-expansion stop predicate; ``None`` when unbounded (so an
        unbudgeted run keeps ``should_stop=None`` and stays bit-identical to
        the pre-budget engines)."""
        if self._at is None:
            return None
        at, clock = self._at, self._clock
        return lambda: clock() >= at

    def sub_deadline(self, seconds: float) -> "Deadline":
        """A deadline *seconds* from now, clamped to this one — how a tier
        reserves part of the remaining budget for the tiers after it."""
        remaining = self.remaining()
        if math.isinf(remaining):
            return Deadline(seconds, clock=self._clock)
        return Deadline(min(seconds, remaining), clock=self._clock)


def validate_strategy(strategy) -> None:
    """Raise :class:`RequestValidationError` unless *strategy* is a
    non-empty, duplicate-free tuple of known tier names."""
    if not isinstance(strategy, tuple) or not strategy or not all(
        isinstance(name, str) for name in strategy
    ):
        raise RequestValidationError(
            "'strategy' must be a non-empty list of tier names"
        )
    unknown = set(strategy) - set(TIERS)
    if unknown:
        raise RequestValidationError(
            f"unknown strategy tiers {sorted(unknown)} (use {list(TIERS)})"
        )
    if len(set(strategy)) != len(strategy):
        raise RequestValidationError("'strategy' must not repeat tiers")
