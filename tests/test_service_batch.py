"""Batch front-end: pair discovery, bulk runs, cache reuse, CLI integration."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dataio import write_csv, read_csv_text
from repro.service import JobManager, discover_pairs, run_batch


def _write_pair(directory, name: str, divisor: int, rows: int = 5) -> None:
    source = read_csv_text(
        "id,val\n" + "".join(f"{i},{i * 3 * divisor}\n" for i in range(1, rows + 1))
    )
    target = read_csv_text(
        "id,val\n" + "".join(f"{i},{i * 3}\n" for i in range(1, rows + 1))
    )
    write_csv(source, directory / f"{name}_source.csv")
    write_csv(target, directory / f"{name}_target.csv")


@pytest.fixture
def pair_dir(tmp_path):
    directory = tmp_path / "pairs"
    directory.mkdir()
    _write_pair(directory, "alpha", 10)
    _write_pair(directory, "beta", 100)
    _write_pair(directory, "gamma", 1000)
    return directory


def test_discover_pairs_sorted_and_complete(pair_dir):
    (pair_dir / "lonely_source.csv").write_text("a\n1\n", encoding="utf-8")
    (pair_dir / "unrelated.csv").write_text("a\n1\n", encoding="utf-8")
    pairs = discover_pairs(pair_dir)
    assert [name for name, _, _ in pairs] == ["alpha", "beta", "gamma"]
    for name, source_path, target_path in pairs:
        assert source_path.name == f"{name}_source.csv"
        assert target_path.name == f"{name}_target.csv"


def test_run_batch_explains_every_pair(pair_dir, tmp_path):
    output_dir = tmp_path / "out"
    events = []
    outcomes = run_batch(pair_dir, workers=2, output_dir=output_dir,
                         on_progress=lambda name, state: events.append((name, state)))
    assert [o.name for o in outcomes] == ["alpha", "beta", "gamma"]
    assert all(o.state == "done" for o in outcomes)
    assert all(o.cost is not None and o.cost <= o.trivial_cost for o in outcomes)
    assert events == [("alpha", "done"), ("beta", "done"), ("gamma", "done")]

    summary = json.loads((output_dir / "batch_summary.json").read_text())
    assert len(summary) == 3
    for name in ("alpha", "beta", "gamma"):
        payload = json.loads(
            (output_dir / f"{name}.explanation.json").read_text()
        )
        assert payload["state"] == "done"
        assert payload["explanation"]["functions"]["val"]["meta"] == "division"


def test_run_batch_reuses_shared_manager_cache(pair_dir):
    with JobManager(workers=2) as manager:
        first = run_batch(pair_dir, manager=manager)
        assert all(not o.cache_hit for o in first)
        second = run_batch(pair_dir, manager=manager)
        assert all(o.cache_hit for o in second)
        assert all(o.state == "done" for o in second)


def test_store_answered_pairs_report_costs_and_write_outputs(pair_dir, tmp_path):
    from repro.service import MemoryResultStore

    store = MemoryResultStore()
    with JobManager(workers=2, store=store) as manager:
        fresh = run_batch(pair_dir, manager=manager)
    output_dir = tmp_path / "out"
    # A second manager over the same store: every pair is a store hit.
    with JobManager(workers=2, store=store) as manager:
        replayed = run_batch(pair_dir, manager=manager, output_dir=output_dir)
    assert all(o.cache_hit for o in replayed)
    for before, after in zip(fresh, replayed):
        assert after.cost is not None and after.cost == before.cost
        assert after.trivial_cost == before.trivial_cost
        assert after.compression_ratio == before.compression_ratio
        assert after.runtime_seconds == before.runtime_seconds
        payload = json.loads(
            (output_dir / f"{after.name}.explanation.json").read_text())
        assert payload["cost"] == before.cost
        assert payload["explanation"]["functions"]["val"]["meta"] == "division"


def test_corrupt_pair_fails_without_sinking_the_batch(pair_dir):
    (pair_dir / "broken_source.csv").write_text("a,b\n1,2\n3\n", encoding="utf-8")
    (pair_dir / "broken_target.csv").write_text("a,b\n1,2\n", encoding="utf-8")
    outcomes = run_batch(pair_dir, workers=2)
    by_name = {o.name: o for o in outcomes}
    assert by_name["broken"].state == "failed"
    assert by_name["broken"].error
    for name in ("alpha", "beta", "gamma"):
        assert by_name[name].state == "done"


def test_run_batch_empty_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        run_batch(tmp_path)


def test_cli_batch_command(pair_dir, tmp_path, capsys):
    output_dir = tmp_path / "cli-out"
    exit_code = main([
        "batch", str(pair_dir), "--workers", "2", "--output-dir", str(output_dir),
    ])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "3/3 pairs explained" in captured
    assert (output_dir / "batch_summary.json").exists()


def test_cli_batch_missing_directory(tmp_path, capsys):
    exit_code = main(["batch", str(tmp_path / "void"), "--quiet"])
    assert exit_code == 1


def test_cli_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_named_config_flows_into_request_provenance(pair_dir):
    from repro.core import START_OVERLAP

    with JobManager(workers=2) as manager:
        outcomes = run_batch(pair_dir, manager=manager, config="hs",
                             overrides={"seed": 3})
        assert all(o.state == "done" for o in outcomes)
        for job in manager.jobs():
            assert job.request.config == "hs"
            assert job.result.config.start_strategy == START_OVERLAP
            assert job.result.config.seed == 3
            assert job.outcome.provenance.base_config == "hs"


def test_pinned_session_config_does_not_claim_a_base_name(pair_dir):
    from repro.api import ExplainSession
    from repro.core import overlap_configuration

    session = ExplainSession(config=overlap_configuration(seed=3))
    with JobManager(workers=2, session=session) as manager:
        for _ in range(2):  # fresh runs, then store hits
            outcomes = run_batch(pair_dir, manager=manager)
            assert all(o.state == "done" for o in outcomes)
        jobs = manager.jobs()
        assert [job.cache_hit for job in jobs] == [False] * 3 + [True] * 3
        for job in jobs:
            # The request's default name ("hid") did not determine the run.
            assert job.outcome.provenance.base_config is None
        for job in jobs[:3]:
            assert job.result.config.start_strategy == "overlap"


def test_process_fan_out_matches_the_thread_fan_out(pair_dir, tmp_path):
    (pair_dir / "broken_source.csv").write_text("a,b\n1,2\n3\n", encoding="utf-8")
    (pair_dir / "broken_target.csv").write_text("a,b\n1,2\n", encoding="utf-8")

    def run(engine):
        output_dir = tmp_path / f"out-{engine}"
        outcomes = run_batch(pair_dir, workers=2, engine=engine,
                             output_dir=output_dir)
        summary = json.loads((output_dir / "batch_summary.json").read_text())
        files = {
            name: json.loads(
                (output_dir / f"{name}.explanation.json").read_text())
            for name in ("alpha", "beta", "gamma")
        }
        assert not (output_dir / "broken.explanation.json").exists()
        return outcomes, summary, files

    def comparable(entry):
        # Search time and the failure text are per run; the rest must match.
        return {key: value for key, value in entry.items()
                if key not in ("runtime_seconds", "error")}

    threads, thread_summary, thread_files = run(None)
    processes, process_summary, process_files = run("parallel")
    assert [o.name for o in processes] == ["alpha", "beta", "broken", "gamma"]
    assert [o.state for o in processes] == ["done", "done", "failed", "done"]
    assert processes[2].error
    assert all(o.cache_hit is False for o in processes)
    assert [o.cost for o in processes] == [o.cost for o in threads]
    assert [comparable(e) for e in process_summary] == \
        [comparable(e) for e in thread_summary]
    assert {name: comparable(payload) for name, payload in process_files.items()} \
        == {name: comparable(payload) for name, payload in thread_files.items()}
