"""The strategy chain: budgeted, tiered explanation behind the v2 API.

A :class:`StrategyChain` walks a configurable tier list — a greedy shallow
search, the full affidavit search, then baseline fallbacks — under one
wall-clock :class:`~repro.api.budget.ExplainBudget`.
Each tier produces a typed :class:`~repro.api.budget.TierResult`; the chain
records which tier answered and why the others were skipped or timed out,
and attaches the attempt log to the winning outcome (``outcome.tiers``).

Budget enforcement rides the engine's cooperative ``should_stop`` run
argument: the deadline becomes a monotonic-clock predicate polled once per
expansion, so a budget-exceeded full search degrades gracefully to its
best-so-far state (never worse than the trivial explanation) instead of
failing — and the cheaper tiers before it have usually banked an answer
already.  An unbudgeted, strategy-less run never enters the chain at all
and stays bit-identical to the plain engines.

The chain is session-level machinery: :meth:`ExplainSession.with_budget`
builds one per run, and requests carrying ``budget``/``strategy`` (schema
v2) route through it automatically.  The baseline tiers are imported
lazily from :mod:`repro.baselines` to keep the package import graph
acyclic (baselines build :class:`~repro.api.ExplainOutcome` themselves).

The chain keeps no results: repeated requests are answered before they
reach it, by the service's result store (:mod:`repro.api.store`).  The
``cache`` tier name stays valid on the wire so stored requests keep
parsing; a strategy that names it logs the tier as skipped and walks on.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..obs import get_registry
from .budget import (
    CONFIDENCE_APPROXIMATE,
    CONFIDENCE_EXACT,
    CONFIDENCE_LABELS,
    DEFAULT_STRATEGY,
    STATUS_ANSWERED,
    STATUS_FAILED,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    TIER_CACHE,
    TIER_FULL,
    TIER_GREEDY,
    Deadline,
    ExplainBudget,
    TierResult,
    confidence_by_content,
    validate_strategy,
)
from .outcome import ExplainOutcome
from .request import PreparedRun

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from .session import ExplainSession

#: Expansion cap of the greedy tier: beam width 1 with β = 1 commits to one
#: function per attribute almost immediately, so a small cap bounds the
#: worst case without ever cutting realistic schemas short.
GREEDY_MAX_EXPANSIONS = 64

#: When the full tier still follows, the greedy tier may spend at most this
#: fraction of the remaining budget — the rest is the full search's slice.
GREEDY_BUDGET_FRACTION = 0.5

#: The attempt-log detail of a ``cache`` tier named in a strategy: the chain
#: holds no result store, so the tier never answers.
CACHE_TIER_DETAIL = "retired: repeats are answered by the service's result store"

_metrics = get_registry()
_TIER_ATTEMPTS = _metrics.counter(
    "repro_tier_attempts_total",
    "Strategy-chain tier attempts by verdict",
    ("tier", "status"),
)
_TIER_ANSWERS = _metrics.counter(
    "repro_tier_answers_total",
    "Strategy-chain final answers by tier and confidence",
    ("tier", "confidence"),
)


def _labelled_by_content(outcome: ExplainOutcome) -> ExplainOutcome:
    """*outcome* with a label that says what the answer is (see
    :func:`~repro.api.budget.confidence_by_content`): an ``approximate``,
    ``partial`` or ``baseline`` answer no cheaper than the trivial
    explanation is relabelled ``trivial``.  ``exact`` answers keep their
    label."""
    provenance = outcome.provenance
    confidence = confidence_by_content(
        provenance.confidence, outcome.cost, outcome.trivial_cost)
    if confidence == provenance.confidence:
        return outcome
    return replace(outcome, provenance=replace(provenance, confidence=confidence))


def _baseline_answer(explainer, prepared: PreparedRun) -> ExplainOutcome:
    """The baseline *explainer*'s answer for *prepared*, labelled with the
    run's base configuration (``None`` under a pinned configuration)."""
    outcome = explainer.explain(
        prepared.instance, request=prepared.request,
        load_seconds=prepared.load_seconds,
    )
    return replace(outcome, provenance=replace(
        outcome.provenance, base_config=prepared.base_config))


class StrategyChain:
    """Walk a tier list under a latency budget and return the best answer.

    Parameters
    ----------
    session:
        The :class:`~repro.api.session.ExplainSession` the search tiers run
        through (its observers apply unchanged; the configuration and the
        function pool come from the prepared run).
    budget:
        The wall-clock budget; ``None`` walks the tiers without a deadline.
    strategy:
        Tier names to walk, in order (default:
        :data:`~repro.api.budget.DEFAULT_STRATEGY`).
    """

    def __init__(self, session: "ExplainSession", *,
                 budget: Optional[ExplainBudget] = None,
                 strategy: Optional[Sequence[str]] = None):
        self._session = session
        self._budget = budget
        resolved = DEFAULT_STRATEGY if strategy is None else tuple(strategy)
        validate_strategy(resolved)
        self._strategy = resolved

    @property
    def strategy(self) -> Tuple[str, ...]:
        return self._strategy

    # ------------------------------------------------------------------ #
    # the walk
    # ------------------------------------------------------------------ #
    def run(self, prepared: PreparedRun) -> ExplainOutcome:
        """Walk the tiers for *prepared* and return the winning outcome,
        its ``tiers`` holding every attempt and its provenance the answering
        tier and confidence.

        Never raises on tier failure and never returns without an answer:
        if every configured tier comes up empty, the trivial explanation is
        produced as an implicit last resort (it is always valid).
        """
        deadline = Deadline.from_budget(
            self._budget, reserve=Deadline.FINALISE_RESERVE
        )
        quality = (
            None if self._budget is None else self._budget.max_compression_ratio
        )
        attempts: List[TierResult] = []
        candidates: List[ExplainOutcome] = []

        def record(result: TierResult) -> None:
            attempts.append(result)
            _TIER_ATTEMPTS.inc(tier=result.tier, status=result.status)
            if result.outcome is not None and result.status == STATUS_ANSWERED:
                candidates.append(result.outcome)

        stop_walking = False
        for position, name in enumerate(self._strategy):
            if stop_walking:
                record(TierResult(
                    tier=name, status=STATUS_SKIPPED,
                    detail="an earlier tier already answered",
                ))
                continue
            later = self._strategy[position + 1:]
            started = time.perf_counter()
            try:
                if name == TIER_CACHE:
                    result = TierResult(
                        tier=TIER_CACHE, status=STATUS_SKIPPED,
                        detail=CACHE_TIER_DETAIL,
                    )
                elif name == TIER_GREEDY:
                    result = self._run_greedy(prepared, deadline, later, started)
                    stop_walking = (
                        result.status == STATUS_ANSWERED
                        and TIER_FULL not in later
                        and self._satisfies(result.outcome, quality)
                    )
                elif name == TIER_FULL:
                    result = self._run_full(
                        prepared, deadline, bool(candidates), started,
                    )
                    # Nothing after the full search can improve on it; the
                    # baseline tiers are only insurance for when it never ran.
                    stop_walking = result.status == STATUS_ANSWERED
                else:
                    result = self._run_baseline(
                        name, prepared, bool(candidates), started,
                    )
                    stop_walking = (
                        result.status == STATUS_ANSWERED
                        and self._satisfies(result.outcome, quality)
                    )
            except Exception as error:  # noqa: BLE001 - the chain must degrade
                result = TierResult(
                    tier=name, status=STATUS_FAILED,
                    elapsed_seconds=time.perf_counter() - started,
                    detail=f"{type(error).__name__}: {error}",
                )
            record(result)

        if not candidates:
            # Implicit last resort: the trivial explanation is always valid,
            # so a chain configured without reachable tiers still answers.
            started = time.perf_counter()
            from ..baselines.explainers import TrivialExplainer

            outcome = _baseline_answer(TrivialExplainer(), prepared)
            record(TierResult(
                tier=outcome.provenance.tier, status=STATUS_ANSWERED,
                confidence=outcome.provenance.confidence,
                elapsed_seconds=time.perf_counter() - started,
                detail="implicit fallback: no configured tier answered",
                outcome=outcome,
            ))

        best = min(
            candidates,
            key=lambda outcome: (
                outcome.cost,
                CONFIDENCE_LABELS.index(outcome.provenance.confidence),
            ),
        )
        best = replace(best, tiers=tuple(attempts))
        _TIER_ANSWERS.inc(
            tier=best.provenance.tier, confidence=best.provenance.confidence
        )
        return best

    # ------------------------------------------------------------------ #
    # tiers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _satisfies(outcome: Optional[ExplainOutcome],
                   quality: Optional[float]) -> bool:
        if outcome is None:
            return False
        if quality is None:
            return True
        return outcome.compression_ratio <= quality

    def _run_greedy(self, prepared: PreparedRun, deadline: Deadline,
                    later: Tuple[str, ...], started: float) -> TierResult:
        if deadline.expired():
            return TierResult(
                tier=TIER_GREEDY, status=STATUS_TIMEOUT,
                elapsed_seconds=time.perf_counter() - started,
                detail="budget exhausted before the tier could start",
            )
        config = prepared.config
        cap = (
            GREEDY_MAX_EXPANSIONS if config.max_expansions is None
            else min(config.max_expansions, GREEDY_MAX_EXPANSIONS)
        )
        greedy_config = config.with_overrides(
            beta=1, queue_width=1, max_expansions=cap,
        )
        # Leave room for the full search when it still follows.
        if TIER_FULL in later and deadline.bounded:
            slice_deadline = deadline.sub_deadline(
                deadline.remaining() * GREEDY_BUDGET_FRACTION
            )
        else:
            slice_deadline = deadline
        runner = self._session
        predicate = slice_deadline.should_stop()
        if predicate is not None:
            runner = runner.with_cancellation(predicate)
        outcome = _labelled_by_content(runner._execute(
            replace(prepared, config=greedy_config),
            tier=TIER_GREEDY, confidence=CONFIDENCE_APPROXIMATE,
        ))
        detail = (
            f"width-1 search, {outcome.expansions} expansions"
            + (", deadline hit" if outcome.cancelled else "")
        )
        return TierResult(
            tier=TIER_GREEDY, status=STATUS_ANSWERED,
            confidence=outcome.provenance.confidence,
            elapsed_seconds=time.perf_counter() - started,
            detail=detail, outcome=outcome,
        )

    def _run_full(self, prepared: PreparedRun, deadline: Deadline,
                  have_candidate: bool, started: float) -> TierResult:
        if deadline.expired() and have_candidate:
            return TierResult(
                tier=TIER_FULL, status=STATUS_TIMEOUT,
                elapsed_seconds=time.perf_counter() - started,
                detail="budget exhausted before the tier could start; "
                       "an earlier tier's answer stands",
            )
        runner = self._session
        predicate = deadline.should_stop()
        if predicate is not None:
            runner = runner.with_cancellation(predicate)
        outcome = _labelled_by_content(runner._execute(prepared, tier=TIER_FULL))
        confidence = outcome.provenance.confidence
        detail = (
            f"completed after {outcome.expansions} expansions"
            if confidence == CONFIDENCE_EXACT
            else f"deadline hit after {outcome.expansions} expansions; "
                 "best-so-far state finalised"
        )
        return TierResult(
            tier=TIER_FULL, status=STATUS_ANSWERED, confidence=confidence,
            elapsed_seconds=time.perf_counter() - started,
            detail=detail, outcome=outcome,
        )

    def _run_baseline(self, name: str, prepared: PreparedRun,
                      have_candidate: bool, started: float) -> TierResult:
        if have_candidate:
            return TierResult(
                tier=name, status=STATUS_SKIPPED,
                elapsed_seconds=time.perf_counter() - started,
                detail="fallback not needed: an earlier tier answered",
            )
        # Lazy import: repro.baselines builds ExplainOutcome objects, so a
        # module-level import here would cycle through the api package.
        from ..baselines.explainers import baseline_explainer

        outcome = _baseline_answer(baseline_explainer(name), prepared)
        return TierResult(
            tier=name, status=STATUS_ANSWERED,
            confidence=outcome.provenance.confidence,
            elapsed_seconds=time.perf_counter() - started,
            detail="baseline fallback (runs even past the deadline: "
                   "some answer beats none)",
            outcome=outcome,
        )
