"""Tests of the fuzzing loop (:mod:`repro.fuzz.runner`).

Three layers:

* the committed regression corpus under ``tests/fuzz_corpus/`` replays
  clean — every past finding stays fixed and every seed stays green;
* a short, seeded coverage-guided run on a healthy build reports zero
  findings;
* against a *deliberately broken* engine shim (the codes-blocking path
  returns a corrupted dictionary code array), the harness detects the
  divergence, the minimizer shrinks the failing pair to <= 10 rows, and a
  replayable corpus entry lands in the findings directory.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import ColumnCache
from repro.fuzz import (
    FINDINGS_DIR,
    FuzzConfig,
    FuzzRunner,
    OracleFailure,
    builtin_seed_entries,
    engines_agree,
    load_entry,
    minimize_pair,
    replay_corpus,
    replay_entry,
)

COMMITTED_CORPUS = Path(__file__).parent / "fuzz_corpus"


class TestBuiltinSeeds:
    def test_seeds_are_well_formed_and_round_trip(self):
        entries = builtin_seed_entries()
        assert len(entries) >= 4
        for entry in entries:
            assert entry == type(entry).from_dict(entry.to_dict())
            if entry.kind == "snapshot":
                pair = entry.pair()
                assert pair.n_rows > 0

    def test_seeds_pass_replay(self):
        for entry in builtin_seed_entries():
            assert replay_entry(entry) == [], entry.name


class TestCommittedCorpusReplay:
    """The regression gate: the committed corpus must replay clean."""

    def test_corpus_directory_is_committed_and_non_empty(self):
        assert COMMITTED_CORPUS.is_dir()
        assert list((COMMITTED_CORPUS / "seeds").glob("*.json"))

    def test_committed_corpus_replays_clean(self):
        failures = replay_corpus(COMMITTED_CORPUS)
        assert failures == {}


class TestShortRun:
    def test_seeded_run_on_healthy_build_is_clean(self, tmp_path):
        config = FuzzConfig(
            time_budget_seconds=6.0, seed=1, max_execs=40,
            corpus_root=tmp_path, payload_ratio=0.25,
        )
        report = FuzzRunner(config).run()
        assert report.ok
        assert report.execs == 40
        assert report.snapshot_execs + report.payload_execs == report.execs
        assert report.coverage_lines > 0
        assert report.coverage_backend in ("settrace", "monitoring")
        assert "findings: 0" in report.summary()
        # A clean run must not write findings.
        assert not list((tmp_path / FINDINGS_DIR).glob("*.json"))

    def test_run_is_deterministic_modulo_time(self, tmp_path):
        def run(seed):
            config = FuzzConfig(
                time_budget_seconds=30.0, seed=seed, max_execs=15,
                coverage_guided=False,
            )
            return FuzzRunner(config).run()

        first, second = run(7), run(7)
        assert first.snapshot_execs == second.snapshot_execs
        assert first.payload_execs == second.payload_execs

    def test_max_execs_zero_is_an_empty_run(self):
        report = FuzzRunner(FuzzConfig(max_execs=0)).run()
        assert report.execs == 0 and report.ok


@pytest.fixture
def broken_codes_engine(monkeypatch):
    """Corrupt the columnar engine's dictionary codes only: the last code
    of every column collapses onto the first.  The row-wise reference is
    untouched, so agreement must break."""
    original = ColumnCache.source_value_codes

    def corrupted(self, attribute):
        codes = list(original(self, attribute))
        if self.enabled and len(codes) >= 2 and codes[-1] != codes[0]:
            codes[-1] = codes[0]
        return codes

    monkeypatch.setattr(ColumnCache, "source_value_codes", corrupted)


class TestBrokenEngineDetection:
    """The acceptance gate of the whole subsystem: a real engine bug is
    found, shrunk, and preserved as a replayable regression input."""

    def test_oracle_detects_divergence(self, broken_codes_engine):
        pair = builtin_seed_entries()[0].pair()
        with pytest.raises(OracleFailure) as caught:
            engines_agree(pair, seed=0)
        assert caught.value.oracle.startswith("engines_agree")

    def test_minimizer_shrinks_failure_to_at_most_ten_rows(
        self, broken_codes_engine
    ):
        pair = builtin_seed_entries()[0].pair()

        def still_fails(candidate):
            try:
                engines_agree(candidate, seed=0)
            except OracleFailure:
                return True
            except Exception:  # noqa: BLE001 - unbuildable candidates
                return False
            return False

        result = minimize_pair(pair, still_fails)
        assert still_fails(result.pair)
        assert result.pair.n_rows <= 10
        assert result.rows_after <= result.rows_before

    def test_runner_emits_replayable_minimized_finding(
        self, broken_codes_engine, tmp_path, monkeypatch
    ):
        config = FuzzConfig(
            time_budget_seconds=25.0, seed=0, max_execs=60,
            corpus_root=tmp_path, coverage_guided=False,
            payload_ratio=0.0, max_findings=1,
        )
        report = FuzzRunner(config).run()
        assert not report.ok
        finding = report.findings[0]
        # Minimized to a small repro...
        assert finding.minimization is not None
        assert finding.minimization.pair.n_rows <= 10
        # ...saved as a corpus entry...
        assert finding.saved_path is not None and finding.saved_path.exists()
        assert finding.saved_path.parent == tmp_path / FINDINGS_DIR
        entry = load_entry(finding.saved_path)
        assert entry.oracles  # replay is pinned to the failing oracle
        # ...that still fails while the engine is broken...
        assert replay_entry(entry) != []
        # ...and passes once the shim is removed (the regression workflow).
        monkeypatch.undo()
        assert replay_entry(entry) == []
