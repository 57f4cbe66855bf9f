"""Self-test of the benchmark's inputs: seeding and replay guards.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Three checks, on every workload:

1. The same seed gives byte-identical inputs; another seed gives different
   ones.
2. No timed input repeats a warm-up input or an earlier timed input, except
   serve-mix's declared repeats — so no cache can replay its own warm-up.
3. serve-mix's measured repeat share equals its declared share, and every
   repeat resends an earlier request byte for byte.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys
from typing import List

from common import SRC, program_present

#: Seconds of inputs to build per workload (enough for several repeats).
SECONDS = 4.0


def sent_bodies(inputs) -> List[bytes]:
    """The bytes each timed request sends, in order."""
    from serve_mix import request_body

    if inputs.schedule is None:
        return [request_body(pair) for pair in inputs.timed]
    return [request_body(inputs.timed[slot.pair]) for slot in inputs.schedule]


def check_workload(name: str) -> List[str]:
    from inputs import WORKLOADS, ServingWorkload, build_inputs

    problems: List[str] = []
    spec = WORKLOADS[name]
    first = build_inputs(name, 1, SECONDS)
    again = build_inputs(name, 1, SECONDS)
    other = build_inputs(name, 2, SECONDS)

    # 1. seeding
    if sent_bodies(first) != sent_bodies(again) or \
            [pair.digest for pair in first.warmup] != [pair.digest for pair in again.warmup]:
        problems.append("the same seed gave different inputs")
    first_digests = {pair.digest for pair in first.warmup + first.timed}
    other_digests = {pair.digest for pair in other.warmup + other.timed}
    if first_digests & other_digests:
        problems.append("two seeds share inputs")

    # 2. no replay of the warm-up or of earlier timed inputs
    warmup = {pair.digest for pair in first.warmup}
    seen_digests, seen_bodies = set(), set()
    slots = first.schedule or [None] * len(first.timed)
    for position, (body, slot) in enumerate(zip(sent_bodies(first), slots)):
        pair = first.timed[position if slot is None else slot.pair]
        repeat = slot is not None and slot.repeat
        if pair.digest in warmup:
            problems.append(f"timed request {position} repeats a warm-up input")
        if (pair.digest in seen_digests) != repeat:
            problems.append(f"timed request {position} is "
                            f"{'not a' if repeat else 'an undeclared'} repeat")
        if repeat and body not in seen_bodies:
            problems.append(f"repeat {position} is not byte-identical to its original")
        seen_digests.add(pair.digest)
        seen_bodies.add(body)

    # 3. declared repeat share
    if isinstance(spec, ServingWorkload):
        share = sum(1 for slot in first.schedule if slot.repeat) / len(first.schedule)
        if share != spec.repeat_share:
            problems.append(f"repeat share {share} differs from the declared "
                            f"{spec.repeat_share}")
    return problems


def main() -> int:
    if not program_present():
        print(f"selftest: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOADS

    failures = 0
    for name in WORKLOADS:
        problems = check_workload(name)
        failures += len(problems)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems[:5]:
            print(f"  {problem}")
        if len(problems) > 5:
            print(f"  ... and {len(problems) - 5} more")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
