"""Helpers shared by run.py and its worker process.

Nothing here imports ``repro``: the worker measures set-up time from a fresh
interpreter, so the program must not be loaded before the worker asks for it.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources inside the checkout.
SRC = ROOT / "src"
#: Scratch space for one run's inputs, store and logs (inside the checkout).
RUN_ROOT = ROOT / ".perfbench_run"
#: Where traced runs write their span trees when the run ends.
TRACE_ROOT = ROOT / ".perfbench_out"


def program_present() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def program_env() -> Dict[str, str]:
    """Environment for a child process that imports the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Import from bytecode caches, as an installed package does: compiling
    # the sources on every start would make set-up time mostly compile time.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # A fixed string-hash seed keeps set and dict orders, and with them the
    # program's work on one input, the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def derive_seed(*parts: object) -> int:
    """A stable 32-bit seed from the workload seed and a label path."""
    text = ":".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


# --------------------------------------------------------------------- #
# host and process probes
# --------------------------------------------------------------------- #
def calibration_probe() -> float:
    """Seconds a fixed pure-Python probe takes: hashing, allocation and
    lookups scattered over a few MiB, like the search.  Drift in this
    number across runs is the host, not the program.  The garbage
    collector is off while it runs, so the size of the caller's heap does
    not change the probe's work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {index: str(index) for index in range(50_000)}
        key = total = 0
        for _ in range(150_000):
            key = (key + 7_919) % 50_000
            total += len(table[key])
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if total <= 0:  # keeps the loop observable
        raise AssertionError
    return elapsed


def steal_seconds() -> float:
    """Cumulative CPU steal time of the host from ``/proc/stat`` (0 when the
    kernel does not report it)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process in MiB."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def reset_peak_rss(pid: Optional[int] = None) -> bool:
    """Reset a process's ``VmHWM`` to its current RSS; ``False`` where the
    kernel does not allow it."""
    try:
        with open(f"/proc/{'self' if pid is None else pid}/clear_refs", "w",
                  encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True
