"""Budgeted explanation: the strategy chain and latency tiers.

Affidavit's full search finds the cheapest explanation, but its runtime
depends on the instance.  When a caller has a latency budget — an
interactive UI, a service SLO — the strategy chain walks a tier list
(greedy shallow search, full search, baseline fallbacks) under a
wall-clock deadline and returns the best answer found in time, labelled
with the tier that produced it and a confidence level.

Run with::

    python examples/budgeted_explain.py
"""

from __future__ import annotations

from repro import ExplainBudget, Session, identity_configuration
from repro.datagen.running_example import running_example_instance


def show(title: str, outcome) -> None:
    print(f"=== {title} ===")
    print(
        f"tier={outcome.provenance.tier!r} "
        f"confidence={outcome.provenance.confidence!r} "
        f"cost={outcome.cost:.0f}"
    )
    if outcome.tiers is not None:
        for attempt in outcome.tiers:
            detail = f" ({attempt.detail})" if attempt.detail else ""
            print(f"  {attempt.tier:<18} {attempt.status}{detail}")
    print()


def main() -> None:
    instance = running_example_instance()
    session = Session(config=identity_configuration())

    # 1. No budget: the chain is bypassed entirely — results stay
    #    bit-identical to the plain engines, provenance says tier 'full'.
    plain = session.explain_instance(instance)
    show("Unbudgeted (plain full search)", plain)

    # 2. A generous budget: every tier gets a chance; the full search
    #    finishes well inside the deadline and wins on cost.
    budgeted = session.with_budget(ExplainBudget(deadline_ms=60_000))
    generous = budgeted.explain_instance(instance)
    show("Budget 60s (full search wins)", generous)
    assert generous.cost == plain.cost

    # 3. A tight budget: the greedy tier gets half of it, the full search
    #    the rest.  When the deadline cuts the full search off, its
    #    best-so-far state is finalised and the chain returns the cheaper
    #    of the two answers: usually the greedy one, confidence
    #    'approximate' (or 'trivial' when it could not beat the trivial
    #    explanation's cost).  A session keeps no results, so this runs the
    #    search again; the HTTP service answers repeats from its result
    #    store before they reach the chain.
    tight = session.with_budget(50).explain_instance(instance)
    show("Budget 50ms", tight)
    tight.explanation.validate(instance)

    # 4. Pinning the strategy: skip straight to a baseline tier.  The
    #    keyed-diff explainer only keeps exact-match pairs, so its cost is
    #    honest — here the reassigned keys leave it at the trivial cost, and
    #    its label says so: confidence 'trivial', not 'baseline'.
    baseline = session.with_budget(None, strategy=("keyed_diff", "trivial"))
    fallback = baseline.explain_instance(instance)
    show("Strategy pinned to baselines", fallback)

    print(
        "The chain never invents answers: every outcome validates against "
        "the instance, and the confidence label tells you how far from the "
        "optimum you might be."
    )


if __name__ == "__main__":
    main()
