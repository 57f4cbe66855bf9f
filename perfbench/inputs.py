"""Seeded inputs of every workload, built with the program's own generator.

Every input is a ``repro.datagen.generate_problem_instance`` instance over a
``repro.datagen.datasets.load_dataset`` surrogate, rendered as CSV text.  The
program only ever sees that text (inline or as files); the generated
instance stays with run.py as the ground truth the answers are checked
against.

Each input gets its own dataset and instance seed derived from the workload
seed and its position, so no timed input repeats a warm-up input or another
timed input — the one exception being serve-mix's declared repeats, which
resend an earlier request byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import derive_seed

from repro.datagen import GeneratedInstance, generate_problem_instance
from repro.datagen.datasets import load_dataset
from repro.dataio import to_csv_text

INLINE = "inline"
PATH = "path"

#: The paper's Figure-5 difficulty.
ETA = 0.3
TAU = 0.3


@dataclass(frozen=True)
class LibraryWorkload:
    """A closed loop of one client calling ``ExplainSession.explain``."""

    name: str
    dataset: str
    records: int
    transport: str
    #: ``deadline_ms`` of a v2 budget, or ``None`` for a plain full search.
    budget_ms: Optional[float]
    #: Lower bound on one request's latency, used only to size the input
    #: set: the run generates enough inputs for requests this fast.
    fastest_request_s: float
    #: Whether request latencies are scaled to the reference host speed
    #: (see ``run.REFERENCE_PROBE_S``).  Only for requests bound by the
    #: program's CPU work: a deadline does not scale with the host.
    host_adjusted: bool

    def input_count(self, seconds: float) -> int:
        return math.ceil(seconds / self.fastest_request_s) + 1


@dataclass(frozen=True)
class ServingWorkload:
    """An open loop of HTTP requests at a fixed arrival rate."""

    name: str
    datasets: Tuple[str, ...]
    records: int
    rate_per_s: float
    #: Every ``repeat_every``-th request resends an earlier one byte for byte.
    repeat_every: int
    #: A repeat resends a request due at least this long before it.
    repeat_lag_s: float
    #: Latency limit of ``slo_met``, from the request's due time.
    slo_s: float

    def request_count(self, seconds: float) -> int:
        blocks = math.ceil(self.rate_per_s * seconds / self.repeat_every)
        return max(1, blocks) * self.repeat_every

    @property
    def repeat_share(self) -> float:
        return 1.0 / self.repeat_every


SERVE_MIX = ServingWorkload(
    name="serve-mix",
    datasets=("iris", "balance", "abalone", "nursery", "adult", "letter"),
    records=60,
    rate_per_s=3.5,
    repeat_every=3,
    repeat_lag_s=2.0,
    slo_s=1.0,
)

WORKLOADS: Dict[str, object] = {
    "fig5-search": LibraryWorkload(
        name="fig5-search", dataset="flight-500k", records=1000,
        transport=INLINE, budget_ms=None, fastest_request_s=1.0,
        host_adjusted=True,
    ),
    "bulk-rows": LibraryWorkload(
        name="bulk-rows", dataset="flight-500k", records=12000,
        transport=PATH, budget_ms=None, fastest_request_s=6.0,
        host_adjusted=True,
    ),
    "serve-mix": SERVE_MIX,
    "budget-50ms": LibraryWorkload(
        name="budget-50ms", dataset="flight-500k", records=130,
        transport=INLINE, budget_ms=50.0, fastest_request_s=0.03,
        host_adjusted=False,
    ),
}

#: Size of the small warm-up inputs (flight-500k records).
WARMUP_RECORDS = 60


@dataclass(frozen=True)
class Pair:
    """One generated snapshot pair and its ground truth."""

    label: str
    generated: GeneratedInstance
    source_csv: str
    target_csv: str
    transport: str

    @property
    def digest(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(self.source_csv.encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(self.target_csv.encode("utf-8"))
        return hasher.hexdigest()


@dataclass(frozen=True)
class Slot:
    """One scheduled serve-mix request: due time and the pair it sends."""

    due_s: float
    pair: int
    repeat: bool


@dataclass(frozen=True)
class WorkloadInputs:
    warmup: List[Pair]
    timed: List[Pair]
    #: serve-mix only: the open-loop schedule over ``timed``.
    schedule: Optional[List[Slot]] = None


def make_pair(label: str, dataset: str, records: int, seed: int,
              transport: str) -> Pair:
    table = load_dataset(dataset, records, seed=seed)
    generated = generate_problem_instance(
        table, eta=ETA, tau=TAU, seed=seed, name=label,
    )
    return Pair(
        label=label,
        generated=generated,
        source_csv=to_csv_text(generated.instance.source),
        target_csv=to_csv_text(generated.instance.target),
        transport=transport,
    )


def build_inputs(workload: str, seed: int, seconds: float) -> WorkloadInputs:
    """The workload's inputs for *seed*, enough for *seconds* of requests."""
    spec = WORKLOADS[workload]
    if isinstance(spec, ServingWorkload):
        return _serving_inputs(spec, seed, seconds)
    warmup = [make_pair(
        "warmup-0", spec.dataset, WARMUP_RECORDS,
        derive_seed(workload, seed, "warmup", 0), spec.transport,
    )]
    timed = [
        make_pair(f"req-{index}", spec.dataset, spec.records,
                  derive_seed(workload, seed, "timed", index), spec.transport)
        for index in range(spec.input_count(seconds))
    ]
    return WorkloadInputs(warmup=warmup, timed=timed)


def _serving_inputs(spec: ServingWorkload, seed: int,
                    seconds: float) -> WorkloadInputs:
    # One warm-up per request kind: inline, path, and (sent by run.py)
    # a repeat of the inline one.
    warmup = [
        make_pair(f"warmup-{index}", "flight-500k", spec.records,
                  derive_seed(spec.name, seed, "warmup", index), transport)
        for index, transport in enumerate((INLINE, PATH))
    ]
    rng = random.Random(derive_seed(spec.name, seed, "schedule"))
    lag = math.ceil(spec.repeat_lag_s * spec.rate_per_s)
    schedule: List[Slot] = []
    sent_at: List[int] = []  # pair index sent at each position, -1 for repeats
    unique = 0
    for position in range(spec.request_count(seconds)):
        due = position / spec.rate_per_s
        if position % spec.repeat_every == spec.repeat_every - 1:
            # Resend a unique request due at least ``repeat_lag_s`` earlier
            # (the earliest one while the run is younger than that).
            horizon = max(0, position - lag)
            candidates = [pair for pair in sent_at[:horizon + 1] if pair >= 0]
            schedule.append(Slot(due_s=due, pair=rng.choice(candidates), repeat=True))
            sent_at.append(-1)
        else:
            schedule.append(Slot(due_s=due, pair=unique, repeat=False))
            sent_at.append(unique)
            unique += 1
    # Datasets take turns; each one alternates inline and path from one
    # round of the six to the next, so no dataset keeps one transport.
    rounds = len(spec.datasets)
    timed = [
        make_pair(f"req-{index}", spec.datasets[index % rounds],
                  spec.records, derive_seed(spec.name, seed, "timed", index),
                  INLINE if (index // rounds) % 2 == 0 else PATH)
        for index in range(unique)
    ]
    return WorkloadInputs(warmup=warmup, timed=timed, schedule=schedule)
