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
"""

from __future__ import annotations

import os
import sys

import pytest


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
