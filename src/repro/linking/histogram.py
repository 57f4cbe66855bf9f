"""Value-histogram utilities for ranking candidate functions (Section 4.4.3).

To rank a candidate function on a block, Affidavit applies it to every source
value of the block, builds the histogram of the results and measures how much
of the block's target-value histogram it covers.  Summed over the sampled
blocks, this *overlap* estimates how many records the function would align.

The helpers are agnostic to what a "value" is: the encoded columnar engine
passes dictionary-encoded *code arrays* (histograms keyed by dense ints, the
cheapest thing to hash and compare), the string engines pass cell values.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from ..functions import AttributeFunction


def indexed_histogram(column: Sequence[Hashable], ids: Sequence[int],
                      skip: Optional[Hashable] = None) -> Counter:
    """Histogram of ``column[i] for i in ids``, optionally dropping *skip*.

    The columnar counterpart of :func:`transformed_histogram`: instead of
    applying a function per cell, the caller passes a whole pre-transformed
    column — a string column or a code array, both usually served by the
    column cache — plus the row ids of one block; *skip* removes the
    not-applicable sentinel (or its reserved code) in O(1) after counting.
    """
    histogram = Counter([column[i] for i in ids])
    if skip is not None:
        histogram.pop(skip, None)
    return histogram


def value_histogram(values: Iterable[str]) -> Counter:
    """Frequency histogram of an iterable of cell values."""
    return Counter(values)


def histogram_overlap(left: Mapping[str, int], right: Mapping[str, int]) -> int:
    """Sum over shared values of the minimum of the two frequencies.

    This is the block-level overlap of Section 4.4.3: on the running example's
    block κᵢ, the division candidate ``x ↦ x/1000`` overlaps the target
    histogram in 2 values whereas the constant ``x ↦ '9.8'`` only overlaps 1.
    """
    if len(left) == 1:
        # Very common in the search (single-valued blocks, constant-like
        # candidates); skip the set machinery.
        ((value, count),) = left.items()
        other = right.get(value, 0)
        return count if count < other else other
    # The C-level key intersection restricts the Python loop to the shared
    # values, which for most candidate functions are few or none.
    common = left.keys() & right.keys()
    if not common:
        return 0
    return sum(min(left[value], right[value]) for value in common)


def transformed_histogram(function: AttributeFunction,
                          source_values: Sequence[str]) -> Counter:
    """Histogram of a candidate function applied to a block's source values.

    Every resulting value has a frequency equal to the sum of the frequencies
    of the source values it was created from; inapplicable cells are skipped.
    """
    histogram: Counter = Counter()
    for value in source_values:
        transformed = function.apply(value)
        if transformed is not None:
            histogram[transformed] += 1
    return histogram


def block_overlap(function: AttributeFunction, source_values: Sequence[str],
                  target_values: Sequence[str]) -> int:
    """Overlap of a candidate function's output with a block's target values."""
    return histogram_overlap(
        transformed_histogram(function, source_values),
        value_histogram(target_values),
    )
