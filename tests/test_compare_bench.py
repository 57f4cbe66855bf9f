"""Tests of the bench-trend comparison script (``benchmarks/compare_bench.py``)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "compare_bench.py"


def _write(directory: Path, name: str, payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload), encoding="utf-8")


def _run(baseline: Path, fresh: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT),
         "--baseline", str(baseline), "--fresh", str(fresh), *extra],
        capture_output=True, text=True,
    )


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "baseline", tmp_path / "fresh"


def test_matching_results_pass(dirs):
    baseline, fresh = dirs
    _write(baseline, "BENCH_evaluator.json", {"speedup": 3.0})
    _write(fresh, "BENCH_evaluator.json", {"speedup": 2.9})
    result = _run(baseline, fresh)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "| ok |" in result.stdout


def test_regression_beyond_threshold_fails(dirs):
    baseline, fresh = dirs
    _write(baseline, "BENCH_evaluator.json", {"speedup": 3.0})
    _write(fresh, "BENCH_evaluator.json", {"speedup": 2.0})
    result = _run(baseline, fresh)
    assert result.returncode == 1
    assert "REGRESSED" in result.stdout


def test_regression_within_custom_threshold_passes(dirs):
    baseline, fresh = dirs
    _write(baseline, "BENCH_evaluator.json", {"speedup": 3.0})
    _write(fresh, "BENCH_evaluator.json", {"speedup": 2.0})
    result = _run(baseline, fresh, "--max-regression", "0.5")
    assert result.returncode == 0


def test_missing_fresh_result_fails(dirs):
    baseline, fresh = dirs
    _write(baseline, "BENCH_evaluator.json", {"speedup": 3.0})
    fresh.mkdir()
    result = _run(baseline, fresh)
    assert result.returncode == 2
    assert "MISSING" in result.stdout


def test_unregistered_baseline_file_without_fresh_counterpart_fails(dirs):
    # Every committed baseline is expected fresh — even one no gated metric
    # reads; a benchmark silently dropped from the CI invocation must fail
    # the job instead of vanishing from the trend.
    baseline, fresh = dirs
    _write(baseline, "BENCH_custom.json", {"anything": 1})
    fresh.mkdir()
    result = _run(baseline, fresh)
    assert result.returncode == 2
    assert "BENCH_custom.json" in result.stdout
    assert "MISSING" in result.stdout


def test_unregistered_baseline_file_with_fresh_counterpart_passes(dirs):
    baseline, fresh = dirs
    _write(baseline, "BENCH_custom.json", {"anything": 1})
    _write(fresh, "BENCH_custom.json", {"anything": 2})
    result = _run(baseline, fresh)
    assert result.returncode == 0


def test_new_benchmark_without_baseline_fails(dirs):
    # A fresh result nothing is committed against cannot be trend-gated;
    # the job must fail until the artifact is promoted to a baseline.
    baseline, fresh = dirs
    baseline.mkdir()
    _write(fresh, "BENCH_evaluator.json", {"speedup": 3.0})
    result = _run(baseline, fresh)
    assert result.returncode == 2
    assert "NO-BASELINE" in result.stdout
    assert "no committed baseline" in result.stderr


def test_unregistered_fresh_file_without_baseline_fails(dirs):
    # Same rule for files no gated metric reads: both directories must
    # agree on the benchmark set.
    baseline, fresh = dirs
    _write(baseline, "BENCH_evaluator.json", {"speedup": 3.0})
    _write(fresh, "BENCH_evaluator.json", {"speedup": 3.0})
    _write(fresh, "BENCH_custom.json", {"anything": 1})
    result = _run(baseline, fresh)
    assert result.returncode == 2
    assert "(file) BENCH_custom.json" in result.stdout
    assert "NO-BASELINE" in result.stdout


def test_metric_value_absent_from_both_sides_is_not_a_failure(dirs):
    # Both sides committed the file but the gated key is absent (e.g. an
    # older payload layout): flagged n/a, never an exit-2 set mismatch.
    baseline, fresh = dirs
    _write(baseline, "BENCH_evaluator.json", {"other": 1})
    _write(fresh, "BENCH_evaluator.json", {"other": 2})
    result = _run(baseline, fresh)
    assert result.returncode == 0
    assert "| n/a |" in result.stdout


def test_summary_file_receives_the_table(dirs, tmp_path):
    baseline, fresh = dirs
    _write(baseline, "BENCH_evaluator.json", {"speedup": 3.0})
    _write(fresh, "BENCH_evaluator.json", {"speedup": 3.2})
    summary = tmp_path / "summary.md"
    result = _run(baseline, fresh, "--summary", str(summary))
    assert result.returncode == 0
    text = summary.read_text(encoding="utf-8")
    assert "Benchmark trend" in text
    assert "| metric | baseline | fresh |" in text
