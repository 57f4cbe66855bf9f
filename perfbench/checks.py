"""Correctness checks of every answer against the instance it explains."""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

from repro.api import ExplainOutcome, RequestValidationError
from repro.core.explanation import InvalidExplanationError
from repro.evaluation.metrics import cell_accuracy

from inputs import Pair


def check_outcome(payload: Mapping[str, Any],
                  pair: Pair) -> Tuple[Optional[ExplainOutcome], Optional[str]]:
    """``(outcome, None)`` for a valid answer, ``(outcome or None, why)``
    for a wrong one.

    The serialized outcome must round-trip through
    :meth:`ExplainOutcome.from_dict`, its explanation must be a valid
    explanation of the pair's instance, and it must cost no more than the
    trivial explanation.
    """
    try:
        outcome = ExplainOutcome.from_dict(payload)
    except (RequestValidationError, KeyError, TypeError, ValueError) as error:
        return None, f"outcome does not round-trip: {error}"
    try:
        outcome.explanation.validate(pair.generated.instance)
    except InvalidExplanationError as error:
        return outcome, f"invalid explanation: {error}"
    if not outcome.cost <= outcome.trivial_cost:
        return outcome, (
            f"cost {outcome.cost} exceeds the trivial cost {outcome.trivial_cost}"
        )
    return outcome, None


def recovery(outcome: ExplainOutcome, pair: Pair) -> float:
    """Cell accuracy of the answer against the generator's transforms."""
    return cell_accuracy(pair.generated, outcome.explanation)
