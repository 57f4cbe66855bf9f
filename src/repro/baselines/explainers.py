"""Baselines behind the session API: the :class:`Explainer` protocol.

The raw baselines (:mod:`.keyed_diff`, :mod:`.similarity_linker`,
:mod:`.trivial`) produce alignments and reports in their own vocabulary.
This module adapts them to the one result type every other front door
returns — :class:`~repro.api.outcome.ExplainOutcome` — so the strategy
chain can serve them as fallback tiers and the evaluation harness can
compare them through one interface.

Honesty over flattery: a valid :class:`~repro.core.Explanation` (Definition
3.5) requires its attribute functions to map every aligned source row
*exactly* onto its target row.  The baselines learn no functions, so their
outcomes carry identity functions and keep only the alignment pairs that
are exact matches — a pair whose cells changed becomes a deletion plus an
insertion.  That is precisely why these tools lose to the affidavit search
under systematic value changes, and the outcome's cost says so instead of
hiding it.  The raw alignment (including non-exact pairs) stays available
through :meth:`Explainer.align` for accuracy measurements.

Everything outside :mod:`repro.baselines` should go through this module
(or the strategy chain); a boundary test enforces that.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..core.cost import explanation_cost, trivial_explanation_cost
from ..core.explanation import Explanation
from ..core.instance import ProblemInstance
from ..api.budget import (
    CONFIDENCE_BASELINE,
    CONFIDENCE_TRIVIAL,
    TIER_KEYED_DIFF,
    TIER_SIMILARITY,
    TIER_TRIVIAL,
    confidence_by_content,
)
from ..api.outcome import ENGINE_BASELINE, ExplainOutcome, Provenance, Timings
from ..api.request import SCHEMA_VERSION, ExplainRequest
from ..functions import IDENTITY
from .keyed_diff import KeyedDiff, KeyedDiffReport
from .similarity_linker import SimilarityLinker
from .trivial import run_trivial_baseline


@runtime_checkable
class Explainer(Protocol):
    """Anything that can answer a problem instance with an outcome.

    ``name`` is the tier name the answer is attributed to, ``confidence``
    the label its provenance carries — unless the answer is no cheaper than
    the trivial explanation, which is labelled ``trivial`` whatever tier
    gave it.  :meth:`align` exposes the raw record
    alignment (before the exact-match filter) for accuracy studies.
    """

    @property
    def name(self) -> str: ...

    @property
    def confidence(self) -> str: ...

    def align(self, instance: ProblemInstance) -> Dict[int, int]: ...

    def explain(self, instance: ProblemInstance, *,
                request: Optional[ExplainRequest] = None,
                load_seconds: float = 0.0) -> ExplainOutcome: ...


def _exact_match_explanation(instance: ProblemInstance,
                             alignment: Dict[int, int]) -> Explanation:
    """The valid explanation induced by *alignment* under identity functions:
    only exact-match pairs survive; changed pairs become delete + insert."""
    kept = {
        source_id: target_id
        for source_id, target_id in alignment.items()
        if instance.source.row(source_id) == instance.target.row(target_id)
    }
    aligned_targets = set(kept.values())
    return Explanation(
        functions={attribute: IDENTITY for attribute in instance.schema},
        alignment=kept,
        deleted_source_ids=tuple(
            source_id for source_id in range(instance.n_source_records)
            if source_id not in kept
        ),
        inserted_target_ids=tuple(
            target_id for target_id in range(instance.n_target_records)
            if target_id not in aligned_targets
        ),
    )


def _outcome(instance: ProblemInstance, explanation: Explanation, *,
             tier: str, confidence: str, elapsed_seconds: float,
             request: Optional[ExplainRequest],
             load_seconds: float) -> ExplainOutcome:
    alpha = 0.5  # the baselines have no α dial; cost at the paper's default
    cost = explanation_cost(instance, explanation, alpha=alpha)
    trivial_cost = trivial_explanation_cost(instance, alpha=alpha)
    provenance = Provenance(
        api_version=SCHEMA_VERSION if request is None else request.schema_version,
        engine=ENGINE_BASELINE,
        base_config=None if request is None else request.config,
        registry=(),
        instance_name=instance.name,
        n_source_records=instance.n_source_records,
        n_target_records=instance.n_target_records,
        n_attributes=instance.n_attributes,
        seed=0,
        tier=tier,
        confidence=confidence_by_content(confidence, cost, trivial_cost),
    )
    return ExplainOutcome(
        explanation=explanation,
        cost=cost,
        trivial_cost=trivial_cost,
        expansions=0,
        generated_states=0,
        cancelled=False,
        timings=Timings(
            load_seconds=load_seconds,
            search_seconds=elapsed_seconds,
            total_seconds=load_seconds + elapsed_seconds,
        ),
        provenance=provenance,
        request=request,
        instance=instance,
    )


class KeyedDiffExplainer:
    """The classic primary-key diff as an :class:`Explainer`.

    *key_attributes* defaults to auto-selection: the attribute whose source
    column has the most distinct values (ties broken by schema order) — the
    column a DBA would have declared the key.
    """

    name = TIER_KEYED_DIFF
    confidence = CONFIDENCE_BASELINE

    def __init__(self, key_attributes: Optional[Sequence[str]] = None):
        self._key_attributes = None if key_attributes is None else tuple(key_attributes)

    def keys_for(self, instance: ProblemInstance) -> Tuple[str, ...]:
        if self._key_attributes is not None:
            return self._key_attributes
        best = max(
            instance.schema.attributes,
            key=lambda a: len(set(instance.source.column_view(a))),
        )
        return (best,)

    def report(self, instance: ProblemInstance) -> KeyedDiffReport:
        return KeyedDiff(self.keys_for(instance)).diff(instance.source, instance.target)

    def align(self, instance: ProblemInstance) -> Dict[int, int]:
        return dict(self.report(instance).alignment)

    def explain(self, instance: ProblemInstance, *,
                request: Optional[ExplainRequest] = None,
                load_seconds: float = 0.0) -> ExplainOutcome:
        started = time.perf_counter()
        explanation = _exact_match_explanation(instance, self.align(instance))
        return _outcome(
            instance, explanation, tier=self.name, confidence=self.confidence,
            elapsed_seconds=time.perf_counter() - started,
            request=request, load_seconds=load_seconds,
        )


class SimilarityExplainer:
    """The unsupervised overlap linker as an :class:`Explainer`."""

    name = TIER_SIMILARITY
    confidence = CONFIDENCE_BASELINE

    def __init__(self, *, min_score: int = 1, max_block_size: int = 100_000):
        self._linker = SimilarityLinker(
            min_score=min_score, max_block_size=max_block_size
        )

    def align(self, instance: ProblemInstance) -> Dict[int, int]:
        return self._linker.link(instance.source, instance.target).alignment

    def explain(self, instance: ProblemInstance, *,
                request: Optional[ExplainRequest] = None,
                load_seconds: float = 0.0) -> ExplainOutcome:
        started = time.perf_counter()
        explanation = _exact_match_explanation(instance, self.align(instance))
        return _outcome(
            instance, explanation, tier=self.name, confidence=self.confidence,
            elapsed_seconds=time.perf_counter() - started,
            request=request, load_seconds=load_seconds,
        )


class TrivialExplainer:
    """``E∅`` as an :class:`Explainer` — the always-valid last resort."""

    name = TIER_TRIVIAL
    confidence = CONFIDENCE_TRIVIAL

    def align(self, instance: ProblemInstance) -> Dict[int, int]:
        return {}

    def explain(self, instance: ProblemInstance, *,
                request: Optional[ExplainRequest] = None,
                load_seconds: float = 0.0) -> ExplainOutcome:
        started = time.perf_counter()
        baseline = run_trivial_baseline(instance)
        return _outcome(
            instance, baseline.explanation, tier=self.name,
            confidence=self.confidence,
            elapsed_seconds=time.perf_counter() - started,
            request=request, load_seconds=load_seconds,
        )


#: The baseline explainers by tier name, in fallback order.
BASELINE_EXPLAINERS = {
    explainer.name: explainer
    for explainer in (KeyedDiffExplainer(), SimilarityExplainer(), TrivialExplainer())
}


def baseline_explainer(name: str) -> Explainer:
    """The shared baseline :class:`Explainer` registered under *name*."""
    try:
        return BASELINE_EXPLAINERS[name]
    except KeyError:
        raise KeyError(
            f"unknown baseline explainer {name!r} "
            f"(available: {sorted(BASELINE_EXPLAINERS)})"
        ) from None
