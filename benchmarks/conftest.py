"""Shared configuration of the benchmark harness.

The paper's evaluation ran on a 24-core server with up to 500 000 records per
table; the benchmarks default to laptop-sized record counts that preserve the
*shape* of every reported table and figure (who wins, by roughly what factor,
where the trends bend).  Two environment variables control the scale:

``REPRO_BENCH_SCALE``
    Multiplier applied to the default record counts (default ``1.0``).
``REPRO_BENCH_FULL``
    When set to ``1``, the Table-2 benchmark runs the full 17-dataset grid at
    the paper's record counts and with ten instances per cell.  Expect hours.

Two command-line options control reproducibility and CI sizing:

``--seed N``
    Seed for dataset generation and the search configuration (default 13),
    so the emitted ``BENCH_*.json`` files are reproducible run-to-run.
``--quick``
    Smoke mode for CI: smaller workloads and relaxed speedup gates.

Benchmarks that produce machine-readable results register a payload in the
session-scoped ``bench_json`` fixture; each entry is written to
``benchmarks/BENCH_<name>.json`` at the end of the run (and uploaded as an
artifact by the ``bench-smoke`` CI job).
"""

from __future__ import annotations

import json
import os
import sys

import pytest


def pytest_addoption(parser: "pytest.Parser") -> None:
    parser.addoption(
        "--seed", action="store", type=int, default=13,
        help="seed for benchmark workload generation (default: 13)",
    )
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="CI smoke mode: smaller workloads, relaxed perf gates",
    )


@pytest.fixture(scope="session")
def bench_seed(request: "pytest.FixtureRequest") -> int:
    return request.config.getoption("--seed")


@pytest.fixture(scope="session")
def quick_mode(request: "pytest.FixtureRequest") -> bool:
    return request.config.getoption("--quick")


def bench_scale() -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


def full_grid() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def scaled(n_records: int, minimum: int = 60) -> int:
    """Apply the global scale factor to a default record count."""
    return max(minimum, int(round(n_records * bench_scale())))


#: File that receives the formatted Table-2 / Figure-5 / Figure-6 / ablation
#: blocks of the most recent benchmark run.
REPORT_PATH = os.path.join(os.path.dirname(__file__), "last_report.txt")


@pytest.fixture(scope="session")
def report_sink():
    """Collects formatted report blocks; they are printed and written to
    ``benchmarks/last_report.txt`` at the end of the run."""
    blocks: list[str] = []
    yield blocks
    if blocks:
        text = "\n\n".join(blocks) + "\n"
        with open(REPORT_PATH, "w", encoding="utf-8") as handle:
            handle.write(text)
        # Bypass pytest's capture so the tables appear in the console output.
        sys.__stdout__.write("\n\n" + text)
        sys.__stdout__.flush()


@pytest.fixture(scope="session")
def bench_json():
    """Machine-readable benchmark results, one ``BENCH_<name>.json`` each.

    Tests assign ``bench_json["<name>"] = payload`` (or mutate a payload in
    place across parametrized cases); every payload is serialised on session
    teardown.
    """
    payloads: dict = {}
    yield payloads
    directory = os.path.dirname(__file__)
    for name, payload in payloads.items():
        path = os.path.join(directory, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        sys.__stdout__.write(f"\nwrote {path}\n")
        sys.__stdout__.flush()
