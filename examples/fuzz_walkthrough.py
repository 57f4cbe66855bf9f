"""Walkthrough of the metamorphic fuzzing harness (``repro.fuzz``).

There is no ground truth for "the right explanation" of two snapshots, so
the fuzzer checks *relations* instead: every engine must agree bit-for-bit,
blocking bounds must match the blockings they predict, codecs and wire
formats must round-trip, budgets must hold, and the service must answer
garbage with a 4xx.  This script walks the whole loop:

1. run every oracle on a healthy snapshot pair (all silent);
2. run a short seeded coverage-guided fuzzing campaign (clean);
3. deliberately break the dictionary-coded blocking path and watch the
   harness catch the divergence, delta-debug it to a minimal pair, and
   save a replayable corpus entry;
4. replay the saved entry — red while the bug is in, green once reverted.

Run with::

    PYTHONPATH=src python examples/fuzz_walkthrough.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import ColumnCache
from repro.fuzz import (
    SNAPSHOT_ORACLES,
    FuzzConfig,
    FuzzRunner,
    OracleFailure,
    builtin_seed_entries,
    engines_agree,
    load_entry,
    minimize_pair,
    replay_entry,
    save_entry,
    CorpusEntry,
)


def banner(text: str) -> None:
    print()
    print(f"=== {text} " + "=" * max(0, 66 - len(text)))


def step_1_oracles() -> None:
    banner("1. every oracle on a healthy pair")
    pair = builtin_seed_entries()[0].pair()
    print(f"pair: {pair.describe()}")
    for name, oracle in sorted(SNAPSHOT_ORACLES.items()):
        oracle(pair, seed=0)
        print(f"  {name:<24} ok")


def step_2_campaign() -> None:
    banner("2. short seeded fuzzing campaign")
    config = FuzzConfig(time_budget_seconds=5.0, seed=0)
    report = FuzzRunner(config, log=print).run()
    print(report.summary())
    assert report.ok, "a healthy build must fuzz clean"


def break_codes_engine():
    """Corrupt the columnar engine's dictionary codes only: the last code
    of every column collapses onto the first, exactly the kind of silent
    encode bug the agreement oracle exists for."""
    original = ColumnCache.source_value_codes

    def corrupted(self, attribute):
        codes = list(original(self, attribute))
        if self.enabled and len(codes) >= 2 and codes[-1] != codes[0]:
            codes[-1] = codes[0]
        return codes

    ColumnCache.source_value_codes = corrupted
    return original


def step_3_broken_engine(corpus_dir: Path) -> Path:
    banner("3. a deliberately broken engine")
    pair = builtin_seed_entries()[0].pair()
    original = break_codes_engine()
    try:
        try:
            engines_agree(pair, seed=0)
            raise SystemExit("the harness missed a corrupted engine!")
        except OracleFailure as failure:
            print(f"caught: {failure.oracle}: {failure.message}")

        def still_fails(candidate) -> bool:
            try:
                engines_agree(candidate, seed=0)
            except OracleFailure:
                return True
            except Exception:
                return False
            return False

        result = minimize_pair(pair, still_fails)
        print(f"minimized: {result.describe()}")
        print("minimal source rows:", list(result.pair.source.rows()))
        print("minimal target rows:", list(result.pair.target.rows()))

        entry = CorpusEntry.from_pair(
            result.pair, oracles=("engines_agree",),
            note="demo: corrupted source_value_codes",
        )
        path = save_entry(entry, corpus_dir / "findings")
        print(f"saved replayable entry: {path}")

        failures = replay_entry(load_entry(path))
        print(f"replay while broken: {len(failures)} failure(s)  (red, good)")
        assert failures
    finally:
        ColumnCache.source_value_codes = original
    return path


def step_4_replay_fixed(path: Path) -> None:
    banner("4. replay after the fix")
    failures = replay_entry(load_entry(path))
    print(f"replay on the healthy build: {len(failures)} failure(s)")
    assert not failures
    print("the entry is now a committed regression test candidate "
          "(tests/fuzz_corpus/findings/)")


def main() -> None:
    step_1_oracles()
    step_2_campaign()
    with tempfile.TemporaryDirectory() as tmp:
        path = step_3_broken_engine(Path(tmp))
        step_4_replay_fixed(path)
    print("\nwalkthrough complete")


if __name__ == "__main__":
    main()
