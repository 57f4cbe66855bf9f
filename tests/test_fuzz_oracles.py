"""Tests of the metamorphic oracles (:mod:`repro.fuzz.oracles`).

Healthy inputs must sail through every oracle silently; inputs that violate
the engine's documented input contract (e.g. raw cells colliding with the
reserved ``NOT_APPLICABLE`` sentinel) are *out of domain* and must be
skipped, not reported.  Actual detection of a broken engine is exercised in
``test_fuzz_runner.py`` against a deliberately corrupted shim.
"""

from __future__ import annotations

import json

import pytest

from repro.core import NOT_APPLICABLE
from repro.dataio import read_csv_text
from repro.fuzz import (
    PAYLOAD_ORACLES,
    OracleFailure,
    SNAPSHOT_ORACLES,
    ServiceOracle,
    SnapshotPair,
    bounds_sound,
    budget_respected,
    codec_roundtrip,
    engines_agree,
    payload_parses,
    serialization_roundtrip,
)


@pytest.fixture
def healthy_pair() -> SnapshotPair:
    return SnapshotPair(
        source=read_csv_text(
            "Name,Val,Mod\nSmith,1000,air\nMiller,2000,air\n"
            "Johnson,1000,sea\nBrown,3000,sea\n"
        ),
        target=read_csv_text(
            "Name,Val,Mod\nSMITH,1,air\nMILLER,2,air\nJOHNSON,1,sea\n"
        ),
    )


@pytest.fixture
def messy_pair() -> SnapshotPair:
    # Missing tokens, unicode, duplicates — in-domain but awkward.
    return SnapshotPair(
        source=read_csv_text(
            "Id,Note\n1,Straße\n2,\n3,NULL\n3,NULL\n4,ﬃ\n"
        ),
        target=read_csv_text(
            "Id,Note\n1,STRASSE\n5,ΚΌΣΜΕ\n3,NULL\n"
        ),
    )


class TestSnapshotOracles:
    @pytest.mark.parametrize("oracle", sorted(SNAPSHOT_ORACLES))
    def test_healthy_pair_passes(self, oracle, healthy_pair):
        SNAPSHOT_ORACLES[oracle](healthy_pair, seed=0)

    @pytest.mark.parametrize("oracle", sorted(SNAPSHOT_ORACLES))
    def test_messy_pair_passes(self, oracle, messy_pair):
        SNAPSHOT_ORACLES[oracle](messy_pair, seed=1)

    @pytest.mark.parametrize(
        "oracle",
        [engines_agree, bounds_sound, codec_roundtrip,
         serialization_roundtrip, budget_respected],
    )
    def test_sentinel_collision_is_out_of_domain_not_a_finding(self, oracle):
        # Raw cells equal to the engines' in-band sentinel are rejected at
        # the ProblemInstance boundary; the oracles must treat such pairs
        # as out-of-domain and skip them silently.
        pair = SnapshotPair(
            source=read_csv_text(f"K\nplain\n{NOT_APPLICABLE}\n"),
            target=read_csv_text("K\nplain\n"),
        )
        oracle(pair, seed=0)

    def test_engines_agree_accepts_engine_subset(self, healthy_pair):
        engines_agree(healthy_pair, seed=0, engines=("columnar",))

    def test_single_column_single_row_pair(self):
        pair = SnapshotPair(
            source=read_csv_text("K\nonly\n"),
            target=read_csv_text("K\nONLY\n"),
        )
        for oracle in SNAPSHOT_ORACLES.values():
            oracle(pair, seed=0)

    @pytest.mark.parametrize("confidence", ["approximate", "partial", "baseline"])
    def test_budget_respected_flags_a_non_trivial_label_at_the_trivial_cost(
            self, healthy_pair, monkeypatch, confidence):
        from dataclasses import replace

        from repro.api import ExplainSession
        from repro.core import ProblemInstance

        # A budgeted answer at the trivial cost under a label that claims
        # more than the trivial explanation.
        trivial = ExplainSession().with_budget(None, strategy=("trivial",)) \
            .explain_instance(ProblemInstance(source=healthy_pair.source,
                                              target=healthy_pair.target))
        assert trivial.cost == trivial.trivial_cost
        mislabelled = replace(trivial, provenance=replace(
            trivial.provenance, tier="keyed_diff", confidence=confidence))
        monkeypatch.setattr(ExplainSession, "explain_instance",
                            lambda *args, **kwargs: mislabelled)
        with pytest.raises(OracleFailure, match=f"labelled '{confidence}'"):
            budget_respected(healthy_pair, seed=0)


class TestPayloadOracles:
    def test_valid_request_payload_passes(self):
        payload = json.dumps({
            "schema_version": "affidavit.request/v1",
            "source_csv": "A,B\n1,x\n2,y\n",
            "target_csv": "A,B\n1,X\n3,z\n",
            "config": "hid",
        })
        for oracle in PAYLOAD_ORACLES.values():
            oracle(payload)

    @pytest.mark.parametrize("payload", [
        "",                                  # empty body
        "not json",                          # unparseable
        "[1, 2, 3]",                         # wrong JSON shape
        '{"schema_version": "affidavit.request/v9"}',  # unknown version
        '{"schema_version": "affidavit.request/v1"}',  # missing snapshots
        '{"source_csv": "A\\n1\\n", "target_csv": "\\x00"}',
    ])
    def test_malformed_payloads_are_rejected_gracefully(self, payload):
        # The parser may reject them (expected) but must never crash with
        # anything other than a validation error — that would be a finding.
        payload_parses(payload)


class TestServiceOracle:
    def test_live_service_answers_sanely(self):
        service = ServiceOracle()
        try:
            valid = json.dumps({
                "schema_version": "affidavit.request/v1",
                "source_csv": "A\n1\n",
                "target_csv": "A\n2\n",
                "config": "hid",
            })
            service.check(valid)
            service.check("definitely { not json")
            service.check("")
        finally:
            service.close()
