"""Tests of engine dispatch: coded columnar is the production engine and
rowwise the independent reference it is compared against.

The contract under test: every front door (``Affidavit``, ``resolve_config``,
the session, the job manager) maps an engine name to one of the two, the two
return bit-identical explanations, costs and search trajectories, and the
retired name ``"parallel"`` still parses and runs the columnar engine.
"""

from __future__ import annotations

import pytest

from repro.api import (
    ENGINE_COLUMNAR,
    ENGINE_PARALLEL,
    ENGINE_ROWWISE,
    ENGINES,
    ExplainRequest,
    Session,
    resolve_config,
)
from repro.core import Affidavit, engine_name, identity_configuration
from repro.dataio import write_csv
from repro.datagen import generate_problem_instance
from repro.datagen.datasets import load_dataset

#: The engine each request name runs: the retired parallel engine degrades to
#: the columnar one, as it did whenever its pool was unavailable.
ENGINE_RUN = {
    ENGINE_COLUMNAR: "columnar",
    ENGINE_ROWWISE: "rowwise",
    ENGINE_PARALLEL: "columnar",
}


def _assert_bit_identical(result, reference):
    assert result.cost == reference.cost
    assert result.explanation.functions == reference.explanation.functions
    assert result.explanation.n_inserted == reference.explanation.n_inserted
    assert result.explanation.n_deleted == reference.explanation.n_deleted
    assert result.end_state == reference.end_state
    assert result.expansions == reference.expansions
    assert result.generated_states == reference.generated_states


@pytest.fixture
def running_files(running_source, running_target, tmp_path):
    write_csv(running_source, tmp_path / "s.csv")
    write_csv(running_target, tmp_path / "t.csv")
    return tmp_path


# --------------------------------------------------------------------------- #
# engine dispatch
# --------------------------------------------------------------------------- #
class TestEngineDispatch:
    def test_engine_name_mapping(self):
        assert engine_name(identity_configuration()) == "columnar"
        assert engine_name(identity_configuration(columnar_cache=False)) == "rowwise"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_resolve_config_selects_the_engine(self, engine):
        request = ExplainRequest(
            source_csv="a\n1\n", target_csv="a\n1\n", engine=engine
        )
        assert engine_name(resolve_config(request)) == ENGINE_RUN[engine]


# --------------------------------------------------------------------------- #
# bit-identity across engines
# --------------------------------------------------------------------------- #
class TestEngineMatrix:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_engines_agree_on_the_running_example(self, engine,
                                                      running_files):
        paths = dict(source_path=str(running_files / "s.csv"),
                     target_path=str(running_files / "t.csv"))
        reference = Session().explain(ExplainRequest(**paths))
        outcome = Session().explain(ExplainRequest(**paths, engine=engine))
        assert outcome.cost == reference.cost
        assert outcome.explanation.functions == reference.explanation.functions
        assert outcome.expansions == reference.expansions
        assert outcome.provenance.engine == ENGINE_RUN[engine]
        # The serialized payloads must agree except for provenance/timings.
        reference_payload = reference.to_dict()
        payload = outcome.to_dict()
        for volatile in ("timings", "provenance", "request", "column_cache",
                         "idempotency_key"):
            reference_payload.pop(volatile)
            payload.pop(volatile)
        assert payload == reference_payload

    @pytest.mark.parametrize("instance_seed", [1, 2, 3])
    def test_columnar_agrees_with_rowwise_on_generated_snapshots(
            self, instance_seed):
        table = load_dataset("flight-500k", 150 + 10 * instance_seed,
                             seed=instance_seed)
        instance = generate_problem_instance(
            table, eta=0.3, tau=0.3, seed=instance_seed
        ).instance
        reference = Affidavit(
            identity_configuration(seed=instance_seed, columnar_cache=False)
        ).explain(instance)
        result = Affidavit(
            identity_configuration(seed=instance_seed)
        ).explain(instance)
        assert reference.engine == "rowwise"
        assert result.engine == "columnar"
        _assert_bit_identical(result, reference)


# --------------------------------------------------------------------------- #
# session lifecycle
# --------------------------------------------------------------------------- #
class TestSessionLifecycle:
    def test_close_is_idempotent_and_the_session_stays_usable(
            self, running_source, running_target):
        session = Session()
        reference = session.explain_tables(
            running_source.copy(), running_target.copy()
        )
        session.close()
        session.close()
        outcome = session.explain_tables(
            running_source.copy(), running_target.copy()
        )
        assert outcome.provenance.engine == "columnar"
        assert outcome.cost == reference.cost
        assert outcome.explanation == reference.explanation

    def test_context_manager_yields_the_session(self, running_source,
                                                running_target):
        session = Session()
        with session as entered:
            assert entered is session
            outcome = entered.explain_tables(
                running_source.copy(), running_target.copy()
            )
        assert outcome.provenance.engine == "columnar"


# --------------------------------------------------------------------------- #
# the service's job manager
# --------------------------------------------------------------------------- #
class TestJobManagerEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_jobs_run_the_requested_engine(self, engine, running_files):
        from repro.service import JobManager

        request = ExplainRequest(
            source_path="s.csv", target_path="t.csv", engine=engine,
            use_cache=False,
        )
        reference = Session().explain(ExplainRequest(
            source_path=str(running_files / "s.csv"),
            target_path=str(running_files / "t.csv"),
        ))
        session = Session().with_data_root(running_files)
        with JobManager(workers=1, session=session) as manager:
            job = manager.submit_request(request)
            assert job.wait(60.0)
            assert job.error is None
            assert job.outcome.provenance.engine == ENGINE_RUN[engine]
            assert job.outcome.cost == reference.cost
            assert job.outcome.explanation == reference.explanation
