"""Tests of the session facade, outcomes and the streaming event surface."""

import json
import sys
import time

import pytest

import repro
import repro.api.session as session_module
from repro.api import (
    ExplainOutcome,
    ExplainRequest,
    ExplainSession,
    RequestValidationError,
    SCHEMA_VERSION,
    SearchCompleted,
    SearchProgressed,
    SearchStarted,
    Session,
    UnsupportedSchemaVersion,
)
from repro.core import Affidavit, identity_configuration, overlap_configuration
from repro.dataio import Schema, Table, write_csv


def division_tables(divisor=100, rows=8):
    schema = Schema(("id", "val"))
    source = Table(schema, [(str(i), str(i * 7 * divisor)) for i in range(1, rows + 1)])
    target = Table(schema, [(str(i), str(i * 7)) for i in range(1, rows + 1)])
    return source, target


def division_request(divisor=100, **kwargs):
    source, target = division_tables(divisor)
    return ExplainRequest.inline(source, target, name=f"div{divisor}", **kwargs)


class TestExplain:
    def test_inline_request_end_to_end(self):
        outcome = Session().explain(division_request())
        assert outcome.cost <= outcome.trivial_cost
        function = outcome.explanation.functions["val"]
        assert function.meta_name == "division"
        assert outcome.result is not None
        assert outcome.instance is not None and outcome.instance.name == "div100"
        assert outcome.idempotency_key is None  # no store keyed this run
        assert outcome.timings.total_seconds >= outcome.timings.search_seconds

    def test_path_request_with_data_root(self, tmp_path):
        source, target = division_tables()
        write_csv(source, tmp_path / "s.csv")
        write_csv(target, tmp_path / "t.csv")
        outcome = (
            Session()
            .with_data_root(tmp_path)
            .explain(ExplainRequest(source_path="s.csv", target_path="t.csv"))
        )
        assert outcome.explanation.functions["val"].meta_name == "division"

    def test_path_escape_is_rejected(self, tmp_path):
        request = ExplainRequest(source_path="../s.csv", target_path="t.csv")
        with pytest.raises(RequestValidationError, match="escapes"):
            Session().with_data_root(tmp_path).explain(request)

    def test_request_functions_subset_limits_the_pool(self):
        outcome = Session().explain(
            division_request(functions=("identity", "division"))
        )
        assert outcome.provenance.registry == ("identity", "division")
        assert outcome.explanation.functions["val"].meta_name == "division"

    def test_with_functions_builder_limits_the_pool(self):
        outcome = (
            Session()
            .with_functions("identity", "division")
            .explain(division_request())
        )
        assert outcome.provenance.registry == ("identity", "division")

    def test_unknown_function_name_is_rejected(self):
        with pytest.raises(RequestValidationError, match="unknown meta functions"):
            Session().with_functions("warp")
        with pytest.raises(RequestValidationError, match="unknown meta functions"):
            Session().explain(division_request(functions=("warp",)))

    def test_rowwise_engine_matches_columnar(self):
        columnar = Session().explain(division_request())
        rowwise = Session().explain(division_request(engine="rowwise"))
        assert columnar.provenance.engine == "columnar"
        assert rowwise.provenance.engine == "rowwise"
        assert rowwise.explanation == columnar.explanation
        assert rowwise.cost == columnar.cost

    def test_pinned_session_config_is_authoritative(self):
        config = identity_configuration(seed=5, columnar_cache=False)
        outcome = Session(config=config).explain(
            division_request(overrides={"seed": 1})
        )
        assert outcome.result.config.seed == 5
        assert outcome.provenance.engine == "rowwise"

    def test_with_config_accepts_names_and_overrides(self):
        session = Session().with_config("hs", seed=3)
        config = session.resolve_config()
        assert config.start_strategy == "overlap" and config.seed == 3
        with pytest.raises(RequestValidationError, match="unknown config"):
            Session().with_config("warp-drive")

    def test_pinned_config_does_not_claim_the_request_base(self):
        # The request names "hid", but the session's pinned Hs ran.
        outcome = Session(config=overlap_configuration()).explain(
            division_request(config="hid")
        )
        assert outcome.result.config.start_strategy == "overlap"
        assert outcome.provenance.base_config is None
        # Every tier of the strategy chain says the same.
        for strategy in (("greedy",), ("full",), ("trivial",), ("keyed_diff",)):
            tiered = Session(config=overlap_configuration()).explain(
                division_request(config="hid", strategy=strategy)
            )
            assert tiered.provenance.tier == strategy[0]
            assert tiered.provenance.base_config is None
            unpinned = Session().explain(
                division_request(config="hs", strategy=strategy)
            )
            assert unpinned.provenance.base_config == "hs"
        unpinned = Session().explain(division_request(config="hs"))
        assert unpinned.provenance.base_config == "hs"

    def test_reserved_sentinel_cell_is_an_invalid_request(self):
        from repro.core.colcache import NOT_APPLICABLE

        request = ExplainRequest(source_csv=f"K\nplain\n{NOT_APPLICABLE}\n",
                                 target_csv="K\nplain\n")
        # Before Python 3.11 the csv module itself rejects the NUL byte in
        # the sentinel; either way the request is invalid, not a crash.
        reason = "NOT_APPLICABLE" if sys.version_info >= (3, 11) else "NUL"
        with pytest.raises(RequestValidationError, match=reason):
            Session().explain(request)
        with pytest.raises(RequestValidationError, match=reason):
            next(Session().explain_iter(request))

    @pytest.mark.parametrize("overrides", [
        {"max_expansions": "7"},
        {"column_cache_entries": 5},
        {"seed": 3, "blocking_cache_size": 2, "columnar_cache": False},
    ])
    def test_with_config_resolves_overrides_like_a_request(self, overrides):
        pinned = Session().with_config("hs", **overrides).resolve_config()
        request = division_request(config="hs", overrides=overrides)
        assert pinned == Session().resolve_config(request)

    @pytest.mark.parametrize("overrides", [
        {"warp": 1},
        {"max_expansions": "seven"},
        {"column_cache_entries": 0},
        {"alpha": 2.0},
    ])
    def test_with_config_rejects_overrides_like_a_request(self, overrides):
        with pytest.raises(RequestValidationError) as by_request:
            division_request(overrides=overrides)
        with pytest.raises(RequestValidationError) as by_session:
            Session().with_config("hid", **overrides)
        assert str(by_session.value) == str(by_request.value)

    def test_explain_tables_convenience(self):
        source, target = division_tables()
        outcome = Session().explain_tables(source, target, name="direct")
        assert outcome.explanation.functions["val"].meta_name == "division"
        assert outcome.provenance.instance_name == "direct"
        assert outcome.request is None and outcome.idempotency_key is None

    def test_progress_and_cancellation_hooks(self):
        seen = []
        outcome = (
            Session()
            .with_progress(seen.append)
            .explain(division_request())
        )
        assert seen and seen[-1].expansions == outcome.expansions

        cancelled = (
            Session()
            .with_cancellation(lambda: True)
            .explain(division_request())
        )
        assert cancelled.cancelled is True


class TestExplainIter:
    def test_event_stream_shape(self):
        events = list(Session().explain_iter(division_request()))
        kinds = [event.kind for event in events]
        assert kinds[0] == "started" and kinds[-1] == "completed"
        assert set(kinds[1:-1]) == {"progressed"}

        started = events[0]
        assert isinstance(started, SearchStarted)
        assert started.n_source_records == 8 and started.engine == "columnar"

        progressed = [e for e in events if isinstance(e, SearchProgressed)]
        assert progressed[-1].expansions >= 1

        completed = events[-1]
        assert isinstance(completed, SearchCompleted)
        assert completed.outcome.explanation.functions["val"].meta_name == "division"
        assert completed.outcome.expansions == progressed[-1].expansions

    def test_events_serialize(self):
        for event in Session().explain_iter(division_request()):
            payload = json.loads(json.dumps(event.to_dict()))
            assert payload["kind"] == event.kind

    def test_closing_the_stream_cancels_the_search(self):
        stream = Session().explain_iter(division_request())
        assert next(stream).kind == "started"
        stream.close()  # must not hang; the worker stops within one expansion

    def test_load_errors_surface_in_the_caller(self):
        request = ExplainRequest(source_path="missing-a.csv",
                                 target_path="missing-b.csv")
        with pytest.raises(RequestValidationError):
            next(Session().explain_iter(request))


class TestThrottle:
    """``throttle_seconds`` sleeps once per expansion on every road into a
    run, not only in the service."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        calls = []
        monkeypatch.setattr(time, "sleep", calls.append)
        return calls

    @staticmethod
    def throttled(running_source, running_target, **kwargs):
        return ExplainRequest.inline(running_source, running_target,
                                     throttle_seconds=0.01, use_cache=False,
                                     **kwargs)

    def test_explain_sleeps_once_per_expansion(self, sleeps, running_source,
                                               running_target):
        outcome = Session().explain(self.throttled(running_source, running_target))
        assert outcome.expansions > 0
        assert sleeps == [0.01] * outcome.expansions

    def test_explain_iter_sleeps_once_per_progressed_event(
            self, sleeps, running_source, running_target):
        events = list(Session().explain_iter(
            self.throttled(running_source, running_target)))
        progressed = [event for event in events if event.kind == "progressed"]
        assert progressed
        assert sleeps == [0.01] * len(progressed)

    def test_chain_tiers_are_throttled(self, sleeps, running_source,
                                       running_target):
        outcome = Session().explain(self.throttled(
            running_source, running_target, strategy=("greedy", "full")))
        tier_expansions = sum(
            attempt.outcome.expansions for attempt in outcome.tiers
            if attempt.outcome is not None
        )
        assert tier_expansions > 0
        assert sleeps == [0.01] * tier_expansions

    def test_unthrottled_run_gets_no_observer(self, monkeypatch):
        observers = []

        class Recording(Affidavit):
            def __init__(self, config=None, **kwargs):
                observers.append(kwargs)
                super().__init__(config, **kwargs)

        monkeypatch.setattr(session_module, "Affidavit", Recording)
        Session().explain(division_request())
        assert len(observers) == 1
        assert observers[0]["progress"] is None
        assert observers[0]["should_stop"] is None


class TestOutcomeSerialization:
    def test_round_trip_is_identity(self):
        outcome = Session().explain(division_request(functions=("identity", "division")))
        rebuilt = ExplainOutcome.from_dict(json.loads(json.dumps(outcome.to_dict())))
        assert rebuilt == outcome
        assert rebuilt.result is None and rebuilt.instance is None
        assert rebuilt.request == outcome.request
        assert rebuilt.provenance.api_version == SCHEMA_VERSION

    def test_unknown_outcome_schema_version_is_rejected(self):
        payload = Session().explain(division_request()).to_dict()
        payload["schema_version"] = "affidavit.outcome/v99"
        with pytest.raises(UnsupportedSchemaVersion):
            ExplainOutcome.from_dict(payload)

    def test_engine_round_trips_verbatim(self):
        payload = Session().explain(division_request(engine="rowwise")).to_dict()
        rebuilt = ExplainOutcome.from_dict(payload)
        assert rebuilt.provenance.engine == "rowwise"

    def test_unknown_provenance_engine_is_rejected(self):
        payload = Session().explain(division_request()).to_dict()
        payload["provenance"]["engine"] = "quantum"
        with pytest.raises(RequestValidationError):
            ExplainOutcome.from_dict(payload)

    def test_missing_provenance_engine_is_rejected(self):
        # Pre-fix builds defaulted a missing engine to "columnar", silently
        # mislabelling provenance; the wire format always writes it, so a
        # payload without it is malformed, not legacy.
        payload = Session().explain(division_request()).to_dict()
        del payload["provenance"]["engine"]
        with pytest.raises(RequestValidationError):
            ExplainOutcome.from_dict(payload)

    def test_summary_mentions_engine_and_cost(self):
        outcome = Session().explain(division_request())
        summary = outcome.summary()
        assert "engine" in summary and "columnar" in summary
        assert "cost" in summary


class TestDeprecatedShim:
    def test_core_explain_snapshots_stays_quiet(self):
        import warnings

        from repro.core import explain_snapshots as core_explain_snapshots

        source, target = division_tables()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = core_explain_snapshots(source, target)
        assert result.explanation.functions["val"].meta_name == "division"

    def test_top_level_shim_is_gone(self):
        assert not hasattr(repro, "explain_snapshots")
        assert "explain_snapshots" not in repro.__all__

    def test_session_alias_exported_at_top_level(self):
        assert repro.Session is ExplainSession
        assert repro.ExplainRequest is ExplainRequest
