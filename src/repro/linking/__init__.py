"""Record-linking substrate: overlap matching, alignments, value histograms."""

from .alignment import (
    AlignmentPairs,
    alignment_accuracy,
    greedy_alignment_from_values,
    induce_greedy_mapping,
    sample_random_alignment,
)
from .histogram import (
    block_overlap,
    histogram_overlap,
    indexed_histogram,
    transformed_histogram,
    value_histogram,
)
from .overlap import OverlapAnalysis, OverlapMatch, analyse_overlap

__all__ = [
    "AlignmentPairs",
    "sample_random_alignment",
    "induce_greedy_mapping",
    "greedy_alignment_from_values",
    "alignment_accuracy",
    "value_histogram",
    "histogram_overlap",
    "indexed_histogram",
    "transformed_histogram",
    "block_overlap",
    "OverlapAnalysis",
    "OverlapMatch",
    "analyse_overlap",
]
