"""Mutators: small, composable perturbations of fuzzing inputs.

Two families:

* **table mutators** transform a :class:`~repro.fuzz.corpus.SnapshotPair`
  into a new pair — structural edits (row drops/dupes/shuffles, column
  shuffles, source/target swaps), value-level corruption (unicode torture
  values, missing tokens, numeric edge literals), dictionary-code edge
  shapes (single-distinct and all-missing
  columns), and *semantic* mutations that reuse the
  :mod:`repro.datagen.transformer` function samplers to apply a plausible
  ground-truth transformation to one attribute — the metamorphic twist that
  keeps inputs inside the domain the engines were built for;
* **payload mutators** transform raw ``affidavit.request/v1|v2`` JSON text —
  key drops, type swaps, version junk, v2-field smuggling into v1, byte
  truncation — to exercise the request parser and the HTTP service's
  malformed-body handling;
* **buffer mutators** corrupt packed binary buffer containers
  (``affidavit.buffer-pack/v1`` bytes, the snapshot-cache format) — bit
  flips, truncation, header-length lies, JSON header garbage, payload
  zeroing — to drive the ``buffer_roundtrip`` oracle's contract that
  corrupt bytes always surface as ``BufferFormatError``.

Every mutator takes ``(input, rng)`` and returns the mutated input or
``None`` when it does not apply (the runner then retries with another); all
randomness comes from the passed ``random.Random`` so runs are reproducible
from the seed.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Dict, List, Optional, Tuple

from ..datagen.transformer import sample_attribute_function
from .corpus import SnapshotPair

TableMutator = Callable[[SnapshotPair, random.Random], Optional[SnapshotPair]]
PayloadMutator = Callable[[str, random.Random], Optional[str]]
BufferMutator = Callable[[bytes, random.Random], Optional[bytes]]

#: Values that historically break string handling somewhere: astral-plane
#: codepoints, combining sequences, bidi controls, zero-width joiners, lone
#: surrogates (valid in Python ``str``, not encodable to UTF-8), case-fold
#: edge cases, missing-value tokens and numeric edge literals.
TORTURE_VALUES: Tuple[str, ...] = (
    "",
    " ",
    "-",
    "?",
    "NULL",
    "NaN",
    "None",
    "<not-applicable>",  # looks like the sentinel but is a legal cell; the
                         # real (NUL-prefixed) sentinel is rejected up front
    "İ",            # LATIN CAPITAL LETTER I WITH DOT ABOVE (casefold trap)
    "ß",            # sharp s: upper() grows the string
    "é",           # combining acute vs precomposed é
    "é",
    "\U0001d54a\U0001d560",  # astral-plane letters
    "‮gnimocni",    # right-to-left override
    "a​b",          # zero-width space
    "0",
    "-0",
    "0.0",
    "1e308",
    "-1",
    "9999999999999999999999",
    "00042",
    "x" * 120,
    "line\nbreak",
    'quote"comma,',
)


# ---------------------------------------------------------------------- #
# table mutators — structural
# ---------------------------------------------------------------------- #
def drop_rows(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Drop a random run of rows from one snapshot (keeps >= 1 row)."""
    source, target = pair.copies()
    table = source if rng.random() < 0.5 else target
    if table.n_rows < 2:
        table = target if table is source else source
        if table.n_rows < 2:
            return None
    count = rng.randint(1, max(1, table.n_rows // 2))
    start = rng.randrange(table.n_rows - count + 1)
    keep = [i for i in range(table.n_rows) if not start <= i < start + count]
    shrunk = table.take(keep)
    if table is source:
        return SnapshotPair(shrunk, target)
    return SnapshotPair(source, shrunk)


def duplicate_rows(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Duplicate a random row a few times in one snapshot (surplus blocks)."""
    source, target = pair.copies()
    table = source if rng.random() < 0.5 else target
    if table.n_rows == 0:
        return None
    row = table.row(rng.randrange(table.n_rows))
    for _ in range(rng.randint(1, 3)):
        table.append(row)
    return SnapshotPair(source, target)


def shuffle_rows(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Permute the row order of one snapshot (alignment must not depend on it
    beyond the engines' documented first-seen tie-breaking, which is shared —
    so all engines must still agree with each other)."""
    source, target = pair.copies()
    table = source if rng.random() < 0.5 else target
    if table.n_rows < 2:
        return None
    order = list(range(table.n_rows))
    rng.shuffle(order)
    shuffled = table.take(order)
    if table is source:
        return SnapshotPair(shuffled, target)
    return SnapshotPair(source, shuffled)


def shuffle_columns(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Apply one attribute permutation to BOTH snapshots (schemas stay equal)."""
    attributes = list(pair.source.schema)
    if len(attributes) < 2:
        return None
    order = list(attributes)
    rng.shuffle(order)
    if order == attributes:
        order = order[1:] + order[:1]
    return SnapshotPair(pair.source.project(order).copy(),
                        pair.target.project(order).copy())


def swap_snapshots(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Explain the migration in reverse (target becomes source)."""
    return SnapshotPair(pair.target.copy(), pair.source.copy())


def crossover_rows(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Copy a random source row into the target (a plausibly-aligned record)."""
    source, target = pair.copies()
    if source.n_rows == 0:
        return None
    target.append(source.row(rng.randrange(source.n_rows)))
    return SnapshotPair(source, target)


# ---------------------------------------------------------------------- #
# table mutators — value-level
# ---------------------------------------------------------------------- #
def corrupt_cells(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Overwrite a few random cells with torture values."""
    source, target = pair.copies()
    tables = [t for t in (source, target) if t.n_rows]
    if not tables:
        return None
    edits = rng.randint(1, 4)
    for _ in range(edits):
        table = rng.choice(tables)
        attribute = rng.choice(list(table.schema))
        column = table.column_view(attribute)
        column[rng.randrange(len(column))] = rng.choice(TORTURE_VALUES)
    return SnapshotPair(source, target)


def constant_column(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Collapse one attribute to a single distinct value in both snapshots
    (single-code dictionaries, degenerate blocking keys)."""
    attributes = list(pair.source.schema)
    attribute = rng.choice(attributes)
    value = rng.choice(("k", "0", "same", ""))
    source, target = pair.copies()
    for table in (source, target):
        column = table.column_view(attribute)
        for index in range(len(column)):
            column[index] = value
    return SnapshotPair(source, target)


def missing_column(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Blank one attribute out entirely — all cells become a missing token,
    the all-missing dictionary edge case."""
    attributes = list(pair.source.schema)
    attribute = rng.choice(attributes)
    token = rng.choice(("", "NULL", "NaN", "None"))
    source, target = pair.copies()
    for table in (source, target):
        column = table.column_view(attribute)
        for index in range(len(column)):
            column[index] = token
    return SnapshotPair(source, target)


def unicode_storm(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Rewrite one attribute with unicode-heavy values (shared dictionary
    across both snapshots, so some records still align)."""
    attributes = list(pair.source.schema)
    attribute = rng.choice(attributes)
    pool = [v for v in TORTURE_VALUES if v] or ["x"]
    source, target = pair.copies()
    for table in (source, target):
        column = table.column_view(attribute)
        for index in range(len(column)):
            column[index] = pool[rng.randrange(len(pool))]
    return SnapshotPair(source, target)


# ---------------------------------------------------------------------- #
# table mutators — semantic (datagen transformers as mutators)
# ---------------------------------------------------------------------- #
def semantic_transform(pair: SnapshotPair, rng: random.Random) -> Optional[SnapshotPair]:
    """Apply a sampled ground-truth transformation to one target attribute.

    This reuses the Section 5.1 function samplers: the mutated pair looks
    exactly like a generated problem instance where one more attribute was
    transformed — the engines should explain it, and all of them should
    explain it identically.
    """
    attributes = list(pair.source.schema)
    rng.shuffle(attributes)
    source, target = pair.copies()
    for attribute in attributes:
        values = target.column_view(attribute)
        if not values:
            return None
        function = sample_attribute_function(values, rng)
        if function is None:
            continue
        column = target.column_view(attribute)
        transformed = [function.apply(cell) for cell in column]
        if any(cell is None for cell in transformed):
            continue
        for index, cell in enumerate(transformed):
            column[index] = cell
        return SnapshotPair(source, target)
    return None


#: The registered table mutators, by name (the runner picks among these and
#: records the chain in the corpus entry's provenance).
TABLE_MUTATORS: Dict[str, TableMutator] = {
    "drop_rows": drop_rows,
    "duplicate_rows": duplicate_rows,
    "shuffle_rows": shuffle_rows,
    "shuffle_columns": shuffle_columns,
    "swap_snapshots": swap_snapshots,
    "crossover_rows": crossover_rows,
    "corrupt_cells": corrupt_cells,
    "constant_column": constant_column,
    "missing_column": missing_column,
    "unicode_storm": unicode_storm,
    "semantic_transform": semantic_transform,
}


def mutate_pair(pair: SnapshotPair, rng: random.Random, *,
                rounds: Optional[int] = None,
                max_attempts: int = 12) -> Tuple[SnapshotPair, Tuple[str, ...]]:
    """Apply 1-3 random table mutators; returns the pair and the chain."""
    if rounds is None:
        rounds = rng.randint(1, 3)
    names = list(TABLE_MUTATORS)
    applied: List[str] = []
    current = pair
    for _ in range(rounds):
        for _ in range(max_attempts):
            name = rng.choice(names)
            mutated = TABLE_MUTATORS[name](current, rng)
            if mutated is not None:
                current = mutated
                applied.append(name)
                break
    return current, tuple(applied)


# ---------------------------------------------------------------------- #
# payload mutators
# ---------------------------------------------------------------------- #
def _parsed(text: str) -> Optional[dict]:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return payload if isinstance(payload, dict) else None


def drop_key(text: str, rng: random.Random) -> Optional[str]:
    payload = _parsed(text)
    if not payload:
        return None
    key = rng.choice(sorted(payload))
    del payload[key]
    return json.dumps(payload)


def wrong_type(text: str, rng: random.Random) -> Optional[str]:
    payload = _parsed(text)
    if not payload:
        return None
    key = rng.choice(sorted(payload))
    payload[key] = rng.choice([17, True, None, ["x"], {"k": "v"}, 3.5])
    return json.dumps(payload)


def junk_version(text: str, rng: random.Random) -> Optional[str]:
    payload = _parsed(text)
    if payload is None:
        return None
    payload["schema_version"] = rng.choice([
        "affidavit.request/v99", "", 42, None, "bogus", ["affidavit.request/v1"],
    ])
    return json.dumps(payload)


def smuggle_v2(text: str, rng: random.Random) -> Optional[str]:
    """Tag the payload v1 but keep (or add) v2-only fields — must be a 400."""
    payload = _parsed(text)
    if payload is None:
        return None
    payload["schema_version"] = "affidavit.request/v1"
    payload[rng.choice(["budget", "strategy"])] = rng.choice(
        [50, {"deadline_ms": 50}, ["cache", "full"], "full"]
    )
    return json.dumps(payload)


def unknown_field(text: str, rng: random.Random) -> Optional[str]:
    payload = _parsed(text)
    if payload is None:
        return None
    payload[rng.choice(["extra", "__proto__", "engine2", "src"])] = "x"
    return json.dumps(payload)


def junk_priority(text: str, rng: random.Random) -> Optional[str]:
    """Inject priority values across and outside the valid [-100, 100] band —
    exercises admission ordering and the 400-on-junk validation path."""
    payload = _parsed(text)
    if payload is None:
        return None
    payload["priority"] = rng.choice([
        0, 1, -1, 100, -100, 101, -101, 10**6, True, False, 1.5, "high",
        None, [5], {"level": 5},
    ])
    return json.dumps(payload)


def junk_serving_fields(text: str, rng: random.Random) -> Optional[str]:
    """Smuggle serving-tier knobs (event cursors, quota hints) into the
    request body — none are request fields, so all must be a clean 400."""
    payload = _parsed(text)
    if payload is None:
        return None
    key = rng.choice(["after", "wait", "heartbeat", "quota", "client_id",
                      "retry_after_ms"])
    payload[key] = rng.choice([0, -3, 1.5, "now", None, True])
    return json.dumps(payload)


def truncate_text(text: str, rng: random.Random) -> Optional[str]:
    if len(text) < 2:
        return None
    return text[: rng.randrange(1, len(text))]


def splice_garbage(text: str, rng: random.Random) -> Optional[str]:
    garbage = rng.choice(['{{', '"', '\\u00', '\x00', '\ud800', ', ,', '}}'])
    position = rng.randrange(len(text) + 1)
    return text[:position] + garbage + text[position:]


def non_object(text: str, rng: random.Random) -> Optional[str]:
    return rng.choice(['[]', '[1, 2]', '"request"', '17', 'null', 'true',
                       'NaN', 'Infinity'])


def nest_deeply(text: str, rng: random.Random) -> Optional[str]:
    depth = rng.randint(40, 120)
    return '{"overrides": ' + "[" * depth + "]" * depth + "}"


PAYLOAD_MUTATORS: Dict[str, PayloadMutator] = {
    "drop_key": drop_key,
    "wrong_type": wrong_type,
    "junk_version": junk_version,
    "smuggle_v2": smuggle_v2,
    "junk_priority": junk_priority,
    "junk_serving_fields": junk_serving_fields,
    "unknown_field": unknown_field,
    "truncate_text": truncate_text,
    "splice_garbage": splice_garbage,
    "non_object": non_object,
    "nest_deeply": nest_deeply,
}


def mutate_payload(text: str, rng: random.Random, *,
                   rounds: Optional[int] = None,
                   max_attempts: int = 10) -> Tuple[str, Tuple[str, ...]]:
    """Apply 1-2 random payload mutators; returns the text and the chain."""
    if rounds is None:
        rounds = rng.randint(1, 2)
    names = list(PAYLOAD_MUTATORS)
    applied: List[str] = []
    current = text
    for _ in range(rounds):
        for _ in range(max_attempts):
            name = rng.choice(names)
            mutated = PAYLOAD_MUTATORS[name](current, rng)
            if mutated is not None and mutated != current:
                current = mutated
                applied.append(name)
                break
    return current, tuple(applied)


# ---------------------------------------------------------------------- #
# buffer mutators (packed binary containers)
# ---------------------------------------------------------------------- #
def _header_bounds(blob: bytes) -> Optional[Tuple[int, int]]:
    """``(header_start, header_end)`` of a buffer-pack blob, when readable."""
    from ..dataio.buffers import MAGIC

    prefix = len(MAGIC) + 8
    if len(blob) < prefix or not blob.startswith(MAGIC):
        return None
    header_length = int.from_bytes(blob[len(MAGIC):prefix], "little")
    if header_length > len(blob) - prefix:
        return None
    return prefix, prefix + header_length


def flip_bytes(blob: bytes, rng: random.Random) -> Optional[bytes]:
    """XOR 1-4 random bytes anywhere in the container."""
    if not blob:
        return None
    mutated = bytearray(blob)
    for _ in range(rng.randint(1, 4)):
        position = rng.randrange(len(mutated))
        mutated[position] ^= rng.randint(1, 255)
    return bytes(mutated)


def truncate_blob(blob: bytes, rng: random.Random) -> Optional[bytes]:
    """Cut the container at a random point (including inside the header)."""
    if len(blob) < 2:
        return None
    return blob[: rng.randrange(1, len(blob))]


def lie_about_header_length(blob: bytes, rng: random.Random) -> Optional[bytes]:
    """Overwrite the u64 header-length field with a random value."""
    from ..dataio.buffers import MAGIC

    if len(blob) < len(MAGIC) + 8:
        return None
    lied = rng.choice([
        0, 1, len(blob), len(blob) * 2, 2**32, 2**63,
        rng.randrange(len(blob) + 16),
    ])
    return (blob[:len(MAGIC)] + lied.to_bytes(8, "little")
            + blob[len(MAGIC) + 8:])


def garble_header_json(blob: bytes, rng: random.Random) -> Optional[bytes]:
    """Splice garbage into the JSON header region (keeps its length)."""
    bounds = _header_bounds(blob)
    if bounds is None or bounds[1] - bounds[0] < 2:
        return None
    start, end = bounds
    position = rng.randrange(start, end)
    garbage = rng.choice(b'{}[]",:\x00\xff')
    return blob[:position] + bytes([garbage]) + blob[position + 1:]


def zero_payload_run(blob: bytes, rng: random.Random) -> Optional[bytes]:
    """Zero a random run of payload bytes (codes, offsets or value data)."""
    bounds = _header_bounds(blob)
    if bounds is None or bounds[1] >= len(blob):
        return None
    start = rng.randrange(bounds[1], len(blob))
    length = rng.randint(1, min(16, len(blob) - start))
    return blob[:start] + b"\x00" * length + blob[start + length:]


def swap_payload_slices(blob: bytes, rng: random.Random) -> Optional[bytes]:
    """Swap two equal-length payload runs (cross-section confusion)."""
    bounds = _header_bounds(blob)
    if bounds is None or len(blob) - bounds[1] < 8:
        return None
    payload_start = bounds[1]
    length = rng.randint(2, min(16, (len(blob) - payload_start) // 2))
    first = rng.randrange(payload_start, len(blob) - 2 * length + 1)
    second = rng.randrange(first + length, len(blob) - length + 1)
    mutated = bytearray(blob)
    mutated[first:first + length], mutated[second:second + length] = \
        mutated[second:second + length], mutated[first:first + length]
    return bytes(mutated)


BUFFER_MUTATORS: Dict[str, BufferMutator] = {
    "flip_bytes": flip_bytes,
    "truncate_blob": truncate_blob,
    "lie_about_header_length": lie_about_header_length,
    "garble_header_json": garble_header_json,
    "zero_payload_run": zero_payload_run,
    "swap_payload_slices": swap_payload_slices,
}


def mutate_buffer(blob: bytes, rng: random.Random, *,
                  rounds: Optional[int] = None,
                  max_attempts: int = 10) -> Tuple[bytes, Tuple[str, ...]]:
    """Apply 1-2 random buffer mutators; returns the bytes and the chain."""
    if rounds is None:
        rounds = rng.randint(1, 2)
    names = list(BUFFER_MUTATORS)
    applied: List[str] = []
    current = blob
    for _ in range(rounds):
        for _ in range(max_attempts):
            name = rng.choice(names)
            mutated = BUFFER_MUTATORS[name](current, rng)
            if mutated is not None and mutated != current:
                current = mutated
                applied.append(name)
                break
    return current, tuple(applied)


__all__ = [
    "BUFFER_MUTATORS",
    "PAYLOAD_MUTATORS",
    "TABLE_MUTATORS",
    "TORTURE_VALUES",
    "mutate_buffer",
    "mutate_pair",
    "mutate_payload",
]
