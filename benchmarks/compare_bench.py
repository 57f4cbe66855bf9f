#!/usr/bin/env python3
"""Diff fresh ``BENCH_*.json`` results against committed baselines.

The bench-trend CI job runs the quick benchmarks, then calls this script to
compare the freshly emitted payloads with the baselines committed in
``benchmarks/``.  Gated metrics are dimensionless ratios (speedups), so they
transfer across machines far better than absolute seconds; a gated metric
that drops by more than ``--max-regression`` (default 20 %) fails the job.

Usage::

    python benchmarks/compare_bench.py --baseline <dir> --fresh <dir>
        [--max-regression 0.20] [--summary <markdown file>]

``--summary`` appends a markdown trend table — point it at
``$GITHUB_STEP_SUMMARY`` to surface the trend on the job page.  Exit code 0
means no gated regression; 1 means at least one gated metric regressed; 2
means the baseline and fresh directories disagree about which benchmarks
exist.  That disagreement cuts both ways: every ``BENCH_*.json`` committed
under the baseline directory must have a fresh counterpart (a benchmark that
silently drops out of the CI invocation fails the job instead of vanishing
from the trend), and every freshly produced ``BENCH_*.json`` must have a
committed baseline (a new benchmark is untracked until its artifact is
committed — the ``NO-BASELINE`` row tells you to download and commit it,
instead of the trend gate silently never applying).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple


class Metric:
    """One gated benchmark metric: where it lives in its result file."""

    def __init__(self, label: str, file: str, path: Tuple[str, ...]):
        self.label = label
        self.file = file
        self.path = path

    def read(self, payload: Any) -> Optional[float]:
        for key in self.path:
            if not isinstance(payload, dict) or key not in payload:
                return None
            payload = payload[key]
        try:
            return float(payload)
        except (TypeError, ValueError):
            return None


#: Every gated metric is a "higher is better" ratio; absolute runtimes are
#: deliberately absent (they measure the runner, not the code).
GATED_METRICS: Sequence[Metric] = (
    Metric("columnar-vs-rowwise speedup", "BENCH_evaluator.json", ("speedup",)),
    Metric("service cache-hit speedup", "BENCH_service_throughput.json",
           ("cache_hit", "speedup")),
    Metric("shared-store dedup speedup", "BENCH_service_throughput.json",
           ("store_hit", "speedup")),
    Metric("tracing efficiency (untraced/traced)", "BENCH_obs.json",
           ("efficiency",)),
    Metric("budgeted p95 headroom (budget/p95)", "BENCH_tiers.json",
           ("budget", "headroom")),
)


def _load(directory: Path, name: str) -> Optional[Any]:
    path = directory / name
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"warning: cannot read {path}: {error}", file=sys.stderr)
        return None


def compare(baseline_dir: Path, fresh_dir: Path,
            max_regression: float) -> Tuple[List[dict], int]:
    """Rows of the trend table plus the exit code."""
    rows: List[dict] = []
    exit_code = 0
    for metric in GATED_METRICS:
        baseline_payload = _load(baseline_dir, metric.file)
        fresh_payload = _load(fresh_dir, metric.file)
        baseline = None if baseline_payload is None else metric.read(baseline_payload)
        fresh = None if fresh_payload is None else metric.read(fresh_payload)
        row = {"metric": metric.label, "file": metric.file,
               "baseline": baseline, "fresh": fresh, "delta": None}
        if baseline_payload is not None and fresh_payload is None:
            row["status"] = "MISSING"
            exit_code = max(exit_code, 2)
        elif baseline_payload is None and fresh_payload is not None:
            # The inverse hole: a benchmark started producing results but
            # nothing is committed to compare against, so the trend gate
            # would never anchor.  Fail until the artifact is committed.
            row["status"] = "NO-BASELINE"
            exit_code = max(exit_code, 2)
        elif baseline is None or fresh is None:
            row["status"] = "n/a"
        else:
            row["delta"] = (fresh - baseline) / baseline if baseline else None
            if fresh < baseline * (1.0 - max_regression):
                row["status"] = "REGRESSED"
                exit_code = max(exit_code, 1)
            else:
                row["status"] = "ok"
        rows.append(row)

    # Every committed baseline file is *expected*: a BENCH_*.json under the
    # baseline directory whose fresh counterpart is absent means the CI job
    # stopped producing (or running) that benchmark — fail instead of
    # silently dropping it from the trend, even when no gated metric reads
    # the file.
    covered = {metric.file for metric in GATED_METRICS}
    for path in sorted(baseline_dir.glob("BENCH_*.json")):
        if path.name in covered:
            continue
        if not (fresh_dir / path.name).exists():
            rows.append({"metric": f"(file) {path.name}", "file": path.name,
                         "baseline": None, "fresh": None, "delta": None,
                         "status": "MISSING"})
            exit_code = max(exit_code, 2)

    # And the mirror image: a fresh result file without any committed
    # baseline is a benchmark flying blind — nothing anchors its trend.
    for path in sorted(fresh_dir.glob("BENCH_*.json")):
        if path.name in covered:
            continue
        if not (baseline_dir / path.name).exists():
            rows.append({"metric": f"(file) {path.name}", "file": path.name,
                         "baseline": None, "fresh": None, "delta": None,
                         "status": "NO-BASELINE"})
            exit_code = max(exit_code, 2)
    return rows, exit_code


def _format_value(value: Optional[float]) -> str:
    return "—" if value is None else f"{value:.2f}x"


def _format_delta(delta: Optional[float]) -> str:
    return "—" if delta is None else f"{delta:+.1%}"


def markdown_table(rows: Sequence[dict], max_regression: float) -> str:
    lines = [
        "### Benchmark trend (gated metrics, "
        f"fail below −{max_regression:.0%})",
        "",
        "| metric | baseline | fresh | Δ | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for row in rows:
        lines.append(
            f"| {row['metric']} | {_format_value(row['baseline'])} "
            f"| {_format_value(row['fresh'])} | {_format_delta(row['delta'])} "
            f"| {row['status']} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="directory holding the committed BENCH_*.json baselines")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="directory holding the freshly produced BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="tolerated fractional drop of a gated metric "
                             "(default: 0.20 = 20%%)")
    parser.add_argument("--summary", type=Path, default=None,
                        help="append the markdown trend table to this file "
                             "(e.g. $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must be in [0, 1)")

    rows, exit_code = compare(args.baseline, args.fresh, args.max_regression)
    table = markdown_table(rows, args.max_regression)
    print(table)
    if args.summary is not None:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(table + "\n")
    if exit_code == 1:
        print("FAIL: at least one gated metric regressed beyond "
              f"{args.max_regression:.0%}", file=sys.stderr)
    elif exit_code == 2:
        print("FAIL: baseline and fresh benchmark sets disagree — a "
              "committed baseline produced no fresh result, or a fresh "
              "result has no committed baseline", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
