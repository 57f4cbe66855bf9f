"""Block-respecting record alignments and greedy value-map induction.

Two building blocks of the extension step (Section 4.3):

* :func:`sample_random_alignment` draws a random one-to-one alignment of
  source and target records that respects a blocking result — records are only
  paired within their block.
* :func:`induce_greedy_mapping` turns such an alignment into a
  :class:`~repro.functions.mapping.ValueMapping` for one attribute by mapping
  every source value to the target value it co-occurs with most often.  The
  resulting map ``H_g`` is the benchmark each induced function candidate has
  to beat, and the fallback used to finalise ``MAP_MARKER`` attributes.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from ..dataio import Table
from ..functions import ValueMapping
from ..core.blocking import Block

AlignmentPairs = List[Tuple[int, int]]


def sample_random_alignment(blocks: Iterable[Block], rng: random.Random) -> AlignmentPairs:
    """A random alignment of source and target row ids that respects a blocking.

    *blocks* are the blocking's block views in block-id order — the search
    passes its mixed blocks (``BlockingResult.mixed_blocks()``); any other
    block is skipped without drawing.  In each mixed block,
    ``min(#source, #target)`` pairs are formed by matching a random
    permutation of the block's source records with a random permutation of
    its target records.
    """
    pairs: AlignmentPairs = []
    for block in blocks:
        if not block.is_mixed:
            continue
        source_ids = list(block.source_ids)
        target_ids = list(block.target_ids)
        rng.shuffle(source_ids)
        rng.shuffle(target_ids)
        pairs.extend(zip(source_ids, target_ids))
    return pairs


def induce_greedy_mapping(alignment: AlignmentPairs, source: Table, target: Table,
                          attribute: str) -> ValueMapping:
    """The greedy value mapping of one attribute under a record alignment.

    Every source value is mapped to the target value with the highest
    co-occurrence count among the aligned pairs; ties are broken
    lexicographically for determinism.
    """
    source_column = source.column_view(attribute)
    target_column = target.column_view(attribute)
    co_occurrence: Dict[str, Counter] = defaultdict(Counter)
    for source_id, target_id in alignment:
        co_occurrence[source_column[source_id]][target_column[target_id]] += 1

    entries: Dict[str, str] = {}
    for source_value, counts in co_occurrence.items():
        best_count = max(counts.values())
        best_value = min(value for value, count in counts.items() if count == best_count)
        entries[source_value] = best_value
    return ValueMapping(entries)


def alignment_accuracy(predicted: AlignmentPairs, reference: AlignmentPairs) -> float:
    """Fraction of reference pairs recovered by a predicted alignment.

    A convenience metric for tests and examples; the paper's headline quality
    metrics live in :mod:`repro.evaluation.metrics`.
    """
    if not reference:
        return 1.0
    predicted_set = set(predicted)
    return sum(1 for pair in reference if pair in predicted_set) / len(reference)


def greedy_alignment_from_values(source: Table, target: Table,
                                 attributes: Sequence[str]) -> AlignmentPairs:
    """Deterministic equality-based alignment on a set of attributes.

    Used by the keyed-diff baseline: records are paired when they agree on all
    of *attributes* (primary-key semantics); surplus records stay unaligned.
    """
    target_index: Dict[Tuple[str, ...], List[int]] = defaultdict(list)
    positions = target.schema.positions_of(attributes)
    for target_id, row in enumerate(target):
        key = tuple(row[p] for p in positions)
        target_index[key].append(target_id)
    for ids in target_index.values():
        ids.reverse()

    pairs: AlignmentPairs = []
    source_positions = source.schema.positions_of(attributes)
    for source_id, row in enumerate(source):
        key = tuple(row[p] for p in source_positions)
        candidates = target_index.get(key)
        if candidates:
            pairs.append((source_id, candidates.pop()))
    return pairs
