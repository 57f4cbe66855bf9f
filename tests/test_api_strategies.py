"""Tests of the budgeted strategy chain (repro.api.strategies / budget)."""

import json
from dataclasses import replace

import pytest

from repro.api import (
    CONFIDENCE_LABELS,
    DEFAULT_STRATEGY,
    SCHEMA_VERSION,
    SCHEMA_VERSION_V2,
    TIER_STATUSES,
    TIERS,
    Deadline,
    ExplainBudget,
    ExplainOutcome,
    ExplainRequest,
    ExplainSession,
    RequestValidationError,
    MemoryResultStore,
    SqliteResultStore,
    StrategyChain,
    TierResult,
    idempotency_key,
    make_frame,
    parse_frame,
)
from repro.api.outcome import Provenance
from repro.api.strategies import CACHE_TIER_DETAIL
from repro.core import Affidavit, identity_configuration
from repro.datagen import generate_problem_instance
from repro.datagen.datasets import load_dataset
from repro.dataio import to_csv_text

SOURCE_CSV = "id,val\n1,100\n2,200\n3,300\n"
TARGET_CSV = "id,val\n1,1\n2,2\n3,3\n"


def inline_request(**kwargs):
    return ExplainRequest(source_csv=SOURCE_CSV, target_csv=TARGET_CSV, **kwargs)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# --------------------------------------------------------------------- #
# budgets and deadlines
# --------------------------------------------------------------------- #
class TestExplainBudget:
    def test_bare_number_shorthand(self):
        assert ExplainBudget.from_dict(50) == ExplainBudget(deadline_ms=50.0)

    def test_round_trip(self):
        budget = ExplainBudget(deadline_ms=250.0, max_compression_ratio=0.8)
        assert ExplainBudget.from_dict(budget.to_dict()) == budget

    @pytest.mark.parametrize("kwargs", [
        {"deadline_ms": 0},
        {"deadline_ms": -1},
        {"deadline_ms": float("inf")},
        {"deadline_ms": float("nan")},
        {"deadline_ms": True},
        {"max_compression_ratio": 0.0},
        {"max_compression_ratio": "tight"},
    ])
    def test_rejects_non_positive_or_non_numeric(self, kwargs):
        with pytest.raises(RequestValidationError):
            ExplainBudget(**kwargs)

    def test_rejects_unknown_fields(self):
        with pytest.raises(RequestValidationError, match="unknown budget"):
            ExplainBudget.from_dict({"deadline_ms": 5, "retries": 3})


class TestDeadline:
    def test_unbounded_deadline_never_interferes(self):
        deadline = Deadline(None)
        assert not deadline.bounded
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()
        # Crucial for bit-identity: no predicate means should_stop stays
        # None on the engine config.
        assert deadline.should_stop() is None

    def test_bounded_deadline_expires_on_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.bounded
        assert deadline.remaining() == 1.0
        predicate = deadline.should_stop()
        assert predicate is not None and not predicate()
        clock.now = 2.0
        assert deadline.expired()
        assert predicate()

    def test_sub_deadline_is_clamped_to_the_parent(self):
        clock = FakeClock()
        parent = Deadline(1.0, clock=clock)
        child = parent.sub_deadline(10.0)
        assert child.remaining() <= parent.remaining()
        generous = Deadline(None, clock=clock).sub_deadline(3.0)
        assert generous.bounded and generous.remaining() == 3.0

    def test_from_budget(self):
        assert not Deadline.from_budget(None).bounded
        assert not Deadline.from_budget(ExplainBudget()).bounded
        assert Deadline.from_budget(ExplainBudget(deadline_ms=10)).bounded


class TestTierResult:
    def test_round_trip(self):
        result = TierResult(tier="greedy", status="answered",
                            confidence="approximate", elapsed_seconds=0.25,
                            detail="width-1 search")
        assert TierResult.from_dict(result.to_dict()) == result

    def test_outcome_is_excluded_from_comparison_and_wire_form(self):
        bare = TierResult(tier="full", status="answered", confidence="exact")
        loaded = TierResult(tier="full", status="answered", confidence="exact",
                            outcome=object())
        assert bare == loaded
        assert "outcome" not in loaded.to_dict()

    @pytest.mark.parametrize("payload", [
        {"tier": "oracle", "status": "answered"},
        {"tier": "full", "status": "maybe"},
        {"tier": "full", "status": "answered", "confidence": "certain"},
        {"tier": "full", "status": "answered", "elapsed_seconds": "fast"},
    ])
    def test_unknown_vocabulary_is_rejected(self, payload):
        with pytest.raises(RequestValidationError):
            TierResult.from_dict(payload)


# --------------------------------------------------------------------- #
# provenance strictness
# --------------------------------------------------------------------- #
class TestProvenanceTierStrictness:
    def _outcome_payload(self):
        outcome = ExplainSession().explain(inline_request())
        return outcome.to_dict()

    def test_unknown_tier_is_rejected(self):
        payload = self._outcome_payload()
        payload["provenance"]["tier"] = "oracle"
        with pytest.raises(RequestValidationError, match="tier"):
            ExplainOutcome.from_dict(payload)

    def test_unknown_confidence_is_rejected(self):
        payload = self._outcome_payload()
        payload["provenance"]["confidence"] = "certain"
        with pytest.raises(RequestValidationError, match="confidence"):
            ExplainOutcome.from_dict(payload)

    def test_legacy_payload_without_tier_defaults_to_full_exact(self):
        payload = self._outcome_payload()
        del payload["provenance"]["tier"]
        del payload["provenance"]["confidence"]
        rebuilt = ExplainOutcome.from_dict(payload)
        assert rebuilt.provenance.tier == "full"
        assert rebuilt.provenance.confidence == "exact"

    def test_vocabularies_are_closed_and_ordered(self):
        # "cache" stays a valid name; the default chain no longer walks it.
        assert "cache" in TIERS
        assert DEFAULT_STRATEGY == tuple(tier for tier in TIERS if tier != "cache")
        assert set(TIER_STATUSES) == {"answered", "skipped", "timeout", "failed"}
        # best-to-worst order is what the chain's tie-break relies on
        assert CONFIDENCE_LABELS.index("exact") < CONFIDENCE_LABELS.index("approximate")
        assert CONFIDENCE_LABELS.index("cached") < CONFIDENCE_LABELS.index("trivial")


# --------------------------------------------------------------------- #
# the result store's outcome level (what the service's job manager uses)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def flight_request():
    """A 40-record Figure-5 pair whose answer moves with config and pool."""
    generated = generate_problem_instance(
        load_dataset("flight-500k", 40, seed=3), eta=0.3, tau=0.3, seed=3,
        name="flight",
    )
    return ExplainRequest(
        source_csv=to_csv_text(generated.instance.source),
        target_csv=to_csv_text(generated.instance.target),
    )


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    backend = (MemoryResultStore() if request.param == "memory"
               else SqliteResultStore(tmp_path / "results.db"))
    yield backend
    backend.close()


class TestStoreOutcomeLevel:
    def test_stored_outcome_equals_a_fresh_run(self, store, flight_request):
        session = ExplainSession().with_budget(60_000, strategy=("full",))
        fresh = session.explain(flight_request)
        run = session.prepare(flight_request)
        instance = run.instance
        key = idempotency_key(instance.source, instance.target, run.config,
                              tuple(instance.registry.names))
        assert store.put_outcome(key, fresh)
        stored = ExplainOutcome.from_dict(store.get(key))
        for field in ("explanation", "cost", "trivial_cost", "expansions",
                      "generated_states", "cancelled", "cache",
                      "blocking_cache"):
            assert getattr(stored, field) == getattr(fresh, field), field
        assert stored.provenance == fresh.provenance
        assert stored.timings.search_seconds == fresh.timings.search_seconds
        assert stored.tiers is None  # the attempt log describes one run
        hit = store.get_outcome(key, replace(run, load_seconds=0.25))
        assert (hit.explanation, hit.cost, hit.expansions) == \
            (fresh.explanation, fresh.cost, fresh.expansions)
        assert hit.provenance.tier == "full"
        assert hit.idempotency_key == key
        assert hit.timings.load_seconds == 0.25
        hit.explanation.validate(hit.instance)

    def test_only_exact_answers_are_stored(self, store, flight_request):
        greedy = ExplainSession().with_budget(
            None, strategy=("greedy",)).explain(flight_request)
        assert not store.put_outcome("greedy", greedy)
        cut = ExplainSession().with_budget(
            ExplainBudget(deadline_ms=0.001), strategy=("full",)
        ).explain(flight_request)
        assert cut.cancelled
        assert cut.provenance.confidence == "trivial"  # cut at the start
        assert not store.put_outcome("cut", cut)
        assert store.stats().puts == 0
        assert store.get_outcome("cut", ExplainSession().prepare(flight_request)) is None


class TestRetiredCacheTierWireCompat:
    """The chain keeps no results, but the ``cache`` tier name and the
    ``cached`` confidence written by builds that had one still parse."""

    def test_v2_request_naming_the_cache_tier_validates_and_runs(self):
        payload = inline_request().to_dict()
        payload.update(schema_version=SCHEMA_VERSION_V2,
                       budget={"deadline_ms": 60_000},
                       strategy=["cache", "full"])
        request = ExplainRequest.from_dict(payload)
        assert request.strategy == ("cache", "full")
        outcome = ExplainSession().explain(request)
        assert (outcome.provenance.tier, outcome.provenance.confidence) == \
            ("full", "exact")
        assert [(a.tier, a.status) for a in outcome.tiers] == \
            [("cache", "skipped"), ("full", "answered")]
        assert outcome.tiers[0].detail == CACHE_TIER_DETAIL

    def test_stored_cached_outcome_round_trips(self):
        fresh = ExplainSession().with_budget(60_000).explain(inline_request())
        hit_log = (TierResult(tier="cache", status="answered",
                              confidence="cached",
                              detail="hit: previously computed exact answer"),)
        cached = replace(
            fresh,
            provenance=replace(fresh.provenance, tier="cache",
                               confidence="cached"),
            tiers=hit_log + fresh.tiers,
        )
        rebuilt = ExplainOutcome.from_dict(json.loads(json.dumps(cached.to_dict())))
        assert (rebuilt.provenance.tier, rebuilt.provenance.confidence) == \
            ("cache", "cached")
        assert rebuilt.provenance == cached.provenance
        assert rebuilt.tiers == cached.tiers
        frame = make_frame("completed", job_id="job-1", sequence=7,
                           state="done", cache_hit=False, store_hit=False,
                           outcome=cached.to_dict())
        parsed = parse_frame(json.loads(json.dumps(frame)))
        assert parsed.outcome.provenance == cached.provenance
        assert parsed.outcome.tiers == cached.tiers
        assert parsed.outcome.cost == fresh.cost


# --------------------------------------------------------------------- #
# the chain walk
# --------------------------------------------------------------------- #
class TestStrategyChain:
    def test_unbudgeted_run_bypasses_the_chain(self):
        outcome = ExplainSession().explain(inline_request())
        assert outcome.tiers is None
        assert outcome.provenance.tier == "full"
        assert outcome.provenance.confidence == "exact"
        assert outcome.provenance.api_version == SCHEMA_VERSION

    def test_generous_budget_walks_to_an_exact_full_answer(self):
        outcome = ExplainSession().with_budget(60_000).explain(inline_request())
        assert outcome.provenance.tier == "full"
        assert outcome.provenance.confidence == "exact"
        assert outcome.tiers is not None
        by_tier = {attempt.tier: attempt for attempt in outcome.tiers}
        assert "cache" not in by_tier
        assert by_tier["greedy"].status == "answered"
        assert by_tier["full"].status == "answered"
        assert by_tier["trivial"].status == "skipped"
        assert "tier" in outcome.summary()
        assert "strategy chain" in outcome.summary()

    def test_repeated_request_is_answered_by_the_full_search(self):
        # A session keeps no results: a repeat runs the search again, and a
        # strategy that names the retired cache tier logs it as skipped.
        session = ExplainSession().with_budget(
            60_000, strategy=("cache", "greedy", "full"))
        first = session.explain(inline_request())
        second = session.explain(inline_request())
        for outcome in (first, second):
            assert (outcome.provenance.tier, outcome.provenance.confidence) == \
                ("full", "exact")
            attempts = {attempt.tier: attempt for attempt in outcome.tiers}
            assert attempts["cache"].status == "skipped"
            assert attempts["cache"].detail == CACHE_TIER_DETAIL
        assert second.cost == first.cost
        assert second.explanation == first.explanation

    def test_request_level_budget_routes_through_the_chain(self):
        request = inline_request(budget=60_000)
        outcome = ExplainSession().explain(request)
        assert outcome.tiers is not None
        assert outcome.provenance.api_version == SCHEMA_VERSION_V2

    def test_tiny_budget_still_answers_with_honest_provenance(self):
        # The acceptance property: an aggressively small budget returns a
        # valid outcome, never an error, and names the tier that answered.
        request = inline_request(budget=ExplainBudget(deadline_ms=0.001))
        outcome = ExplainSession().explain(request)
        outcome.explanation.validate(outcome.instance)
        assert outcome.provenance.tier in TIERS
        assert outcome.cost <= outcome.trivial_cost
        statuses = {attempt.tier: attempt.status for attempt in outcome.tiers}
        assert statuses["greedy"] == "timeout"

    def test_baseline_only_strategy_answers_via_the_baseline(self):
        # Two of three records are unchanged, so the keyed diff's answer
        # beats the trivial explanation.
        request = ExplainRequest(source_csv="id,val\n1,a\n2,b\n3,c\n",
                                 target_csv="id,val\n1,a\n2,b\n4,d\n")
        session = ExplainSession().with_budget(None, strategy=("keyed_diff",))
        outcome = session.explain(request)
        assert outcome.cost < outcome.trivial_cost
        assert outcome.provenance.tier == "keyed_diff"
        assert outcome.provenance.confidence == "baseline"
        assert outcome.provenance.engine == "baseline"

    def test_baseline_answer_at_the_trivial_cost_is_labelled_trivial(self):
        # Every value changed, so no exact-match pair survives.
        session = ExplainSession().with_budget(None, strategy=("keyed_diff",))
        outcome = session.explain(inline_request())
        assert outcome.cost == outcome.trivial_cost
        assert (outcome.provenance.tier, outcome.provenance.confidence) == \
            ("keyed_diff", "trivial")
        assert outcome.tiers[0].confidence == "trivial"

    def test_unreachable_strategy_falls_back_to_trivial(self):
        # A strategy naming only the retired cache tier answers with the
        # implicit trivial fallback instead of failing.
        session = ExplainSession().with_budget(None, strategy=("cache",))
        outcome = session.explain(inline_request())
        assert outcome.provenance.tier == "trivial"
        assert outcome.cost == outcome.trivial_cost
        attempts = {a.tier: a.status for a in outcome.tiers}
        assert attempts["cache"] == "skipped"
        assert attempts["trivial"] == "answered"

    def test_greedy_only_strategy_is_labelled_approximate(self):
        session = ExplainSession().with_budget(None, strategy=("greedy",))
        outcome = session.explain(inline_request())
        assert outcome.provenance.tier == "greedy"
        assert outcome.provenance.confidence == "approximate"
        outcome.explanation.validate(outcome.instance)

    def test_tiny_budget_answer_at_the_trivial_cost_is_labelled_trivial(self):
        # Greedy times out; the full search is cut before its first
        # expansion and answers at the trivial cost.
        request = inline_request(budget=ExplainBudget(deadline_ms=0.001))
        outcome = ExplainSession().explain(request)
        assert outcome.cost == outcome.trivial_cost
        assert (outcome.provenance.tier, outcome.provenance.confidence) == \
            ("full", "trivial")
        attempts = {attempt.tier: attempt for attempt in outcome.tiers}
        assert attempts["full"].confidence == "trivial"

    def test_greedy_answer_at_the_trivial_cost_is_labelled_trivial(self):
        # No function relates these snapshots: nothing beats the trivial
        # explanation.
        request = ExplainRequest(source_csv="id,val\n1,a\n2,b\n3,c\n",
                                 target_csv="id,val\n7,x\n8,y\n9,z\n")
        session = ExplainSession().with_budget(None, strategy=("greedy",))
        outcome = session.explain(request)
        assert outcome.cost == outcome.trivial_cost
        assert (outcome.provenance.tier, outcome.provenance.confidence) == \
            ("greedy", "trivial")
        assert outcome.tiers[0].confidence == "trivial"

    def test_only_answers_at_the_trivial_cost_are_relabelled(self):
        from dataclasses import replace

        from repro.api.strategies import _labelled_by_content

        outcome = ExplainSession().explain(inline_request())
        assert outcome.cost < outcome.trivial_cost
        at_trivial = replace(outcome, cost=outcome.trivial_cost)
        for confidence in ("approximate", "partial", "baseline", "exact"):
            provenance = replace(outcome.provenance, confidence=confidence)
            below = replace(outcome, provenance=provenance)
            assert _labelled_by_content(below).provenance.confidence == confidence
            expected = "exact" if confidence == "exact" else "trivial"
            relabelled = _labelled_by_content(replace(at_trivial, provenance=provenance))
            assert relabelled.provenance.confidence == expected

    def test_chain_run_exposes_the_answering_tier(self):
        session = ExplainSession()
        request = inline_request()
        outcome = StrategyChain(session, strategy=("full",)).run(session.prepare(request))
        assert isinstance(outcome, ExplainOutcome)
        assert outcome.provenance.tier == "full"
        assert outcome.provenance.confidence == "exact"
        assert [(attempt.tier, attempt.status) for attempt in outcome.tiers] == [
            ("full", "answered")
        ]

    def test_invalid_strategy_is_rejected(self):
        with pytest.raises(RequestValidationError, match="unknown strategy"):
            StrategyChain(ExplainSession(), strategy=("warp",))
        with pytest.raises(RequestValidationError, match="repeat"):
            StrategyChain(ExplainSession(), strategy=("full", "full"))

    def test_with_budget_coercion_and_rejection(self):
        session = ExplainSession().with_budget(50)
        assert session._budget == ExplainBudget(deadline_ms=50.0)
        assert session.with_budget(None)._budget is None
        with pytest.raises(RequestValidationError):
            ExplainSession().with_budget(True)
        with pytest.raises(RequestValidationError):
            ExplainSession().with_budget("fast")

    def test_outcome_with_tiers_round_trips(self):
        outcome = ExplainSession().with_budget(60_000).explain(inline_request())
        rebuilt = ExplainOutcome.from_dict(outcome.to_dict())
        assert rebuilt.provenance == outcome.provenance
        assert rebuilt.tiers == outcome.tiers
        assert rebuilt.cost == outcome.cost


# --------------------------------------------------------------------- #
# exactness and cross-tier agreement
# --------------------------------------------------------------------- #
class TestBudgetNoneBitIdentity:
    """budget=None must be bit-identical to the plain full search on every
    engine request (the chain is never entered).  The retired requests —
    ``engine: "parallel"`` and the ``blocking_codes`` override that once
    selected the string-keyed columnar path — run the columnar engine."""

    ENGINE_REQUESTS = {
        "encoded-columnar": {"engine": "columnar"},
        "string-columnar": {"engine": "columnar",
                            "overrides": {"blocking_codes": False}},
        "rowwise": {"engine": "rowwise"},
        "parallel": {"engine": "parallel",
                     "overrides": {"parallel_workers": 2}},
        "parallel-default": {"engine": "parallel"},
    }

    @pytest.mark.parametrize("label", sorted(ENGINE_REQUESTS))
    def test_session_without_budget_matches_direct_search(self, label):
        request = inline_request(overrides={
            "seed": 13, **self.ENGINE_REQUESTS[label].get("overrides", {})
        }, engine=self.ENGINE_REQUESTS[label]["engine"])
        with ExplainSession() as session:
            outcome = session.explain(request)
        instance = ExplainSession().prepare(inline_request()).instance
        direct = Affidavit(identity_configuration(seed=13)).explain(instance)
        assert outcome.tiers is None
        assert outcome.cost == direct.cost
        assert outcome.explanation.functions == direct.explanation.functions
        assert outcome.explanation.alignment == direct.explanation.alignment
        assert outcome.expansions == direct.expansions
        assert outcome.generated_states == direct.generated_states

    def test_full_tier_under_generous_budget_matches_unbudgeted_run(self):
        plain = ExplainSession().explain(inline_request(overrides={"seed": 13}))
        budgeted = (
            ExplainSession()
            .with_budget(600_000, strategy=("full",))
            .explain(inline_request(overrides={"seed": 13}))
        )
        assert budgeted.provenance.confidence == "exact"
        assert budgeted.cost == plain.cost
        assert budgeted.explanation == plain.explanation
        assert budgeted.expansions == plain.expansions


class TestRetiredEngineWireCompat:
    """Requests written for builds with the parallel engine and the
    string-keyed columnar path still parse, are validated as those builds
    validated them, and run the columnar engine."""

    LEGACY = ("string-columnar", "parallel", "parallel-default")

    @staticmethod
    def _payload(spec, **extra):
        return {
            "source_csv": SOURCE_CSV,
            "target_csv": TARGET_CSV,
            "engine": spec["engine"],
            "overrides": {"seed": 13, **spec.get("overrides", {})},
            **extra,
        }

    def _explain(self, spec, **extra):
        request = ExplainRequest.from_dict(self._payload(spec, **extra))
        return ExplainSession().explain(request)

    @staticmethod
    def _assert_same_answer(outcome, reference):
        assert outcome.provenance.engine == "columnar"
        assert outcome.cost == reference.cost
        assert outcome.explanation == reference.explanation

    @pytest.mark.parametrize("label", LEGACY)
    def test_v1_request_runs_columnar(self, label):
        specs = TestBudgetNoneBitIdentity.ENGINE_REQUESTS
        outcome = self._explain(specs[label])
        self._assert_same_answer(outcome, self._explain(specs["encoded-columnar"]))
        assert outcome.provenance.api_version == SCHEMA_VERSION

    @pytest.mark.parametrize("label", LEGACY)
    def test_v2_budgeted_request_runs_columnar(self, label):
        specs = TestBudgetNoneBitIdentity.ENGINE_REQUESTS
        v2 = dict(schema_version=SCHEMA_VERSION_V2,
                  budget={"deadline_ms": 600_000}, strategy=["full"])
        outcome = self._explain(specs[label], **v2)
        self._assert_same_answer(
            outcome, self._explain(specs["encoded-columnar"], **v2)
        )
        assert outcome.provenance.api_version == SCHEMA_VERSION_V2
        assert outcome.provenance.tier == "full"

    @pytest.mark.parametrize("engine, overrides", [
        ("parallel", {"parallel_workers": "2.9"}),
        ("parallel", {"parallel_workers": 2.0}),
        ("parallel", {"parallel_workers": True}),
        ("parallel", {"parallel_workers": -1}),
        ("parallel", {"columnar_cache": False}),
        ("parallel", {"columnar_cache": False, "parallel_workers": 2}),
        ("columnar", {"parallel_workers": "2.9"}),
        ("columnar", {"parallel_workers": -1}),
        ("columnar", {"parallel_workers": None}),
        ("columnar", {"parallel_workers": 2}),
        ("rowwise", {"parallel_workers": 2}),
    ])
    def test_ill_typed_legacy_values_are_still_rejected(self, engine, overrides):
        with pytest.raises(RequestValidationError):
            ExplainRequest.from_dict(self._payload(
                {"engine": engine, "overrides": overrides}
            ))

    @pytest.mark.parametrize("engine, overrides", [
        ("parallel", {"parallel_workers": 1}),
        ("parallel", {"parallel_workers": 3}),
        ("parallel", {"parallel_workers": None}),
        ("parallel", {"columnar_cache": False, "parallel_workers": 0}),
        ("columnar", {"parallel_workers": 0}),
        ("columnar", {"parallel_workers": True}),
        ("rowwise", {"parallel_workers": 1}),
        ("columnar", {"blocking_codes": "anything"}),
    ])
    def test_legal_legacy_values_are_accepted_and_ignored(self, engine, overrides):
        request = ExplainRequest.from_dict(self._payload(
            {"engine": engine, "overrides": overrides}
        ))
        plain = ExplainRequest.from_dict(self._payload({
            "engine": "columnar" if engine == "parallel" else engine,
            "overrides": {k: v for k, v in overrides.items()
                          if k == "columnar_cache"},
        }))
        assert request.overrides != plain.overrides
        assert ExplainSession().resolve_config(request) == \
            ExplainSession().resolve_config(plain)

    def test_stored_parallel_provenance_round_trips(self):
        payload = self._explain({"engine": "columnar"}).provenance.to_dict()
        payload["engine"] = "parallel"
        provenance = Provenance.from_dict(payload)
        assert provenance.engine == "parallel"
        assert provenance.to_dict() == payload


class TestCrossTierAgreement:
    """The greedy tier is a sound relaxation of the full search: on the
    paper's Figure-5 workload (flight surrogate, η = τ = 0.3) it returns a
    valid explanation whose cost is never better than the full answer."""

    @pytest.fixture(scope="class", params=[3, 11])
    def generated(self, request):
        table = load_dataset("flight-500k", 200, seed=request.param)
        return generate_problem_instance(
            table, eta=0.3, tau=0.3, seed=request.param, name="figure5"
        )

    def test_greedy_cost_is_no_better_than_full(self, generated):
        instance = generated.instance
        full = ExplainSession().explain_instance(instance)
        greedy = (
            ExplainSession()
            .with_budget(None, strategy=("greedy",))
            .explain_instance(instance)
        )
        greedy.explanation.validate(instance)
        assert greedy.cost >= full.cost
        assert greedy.cost <= greedy.trivial_cost
        assert greedy.provenance.confidence == (
            "trivial" if greedy.cost == greedy.trivial_cost else "approximate")
        assert full.provenance.confidence == "exact"
