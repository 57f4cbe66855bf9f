"""Core of the reproduction: problem model, cost model and the Affidavit search."""

from .config import (
    START_EMPTY,
    START_IDENTITY,
    START_OVERLAP,
    AffidavitConfig,
    engine_name,
    identity_configuration,
    overlap_configuration,
)
from .instance import ProblemInstance
from .explanation import (
    Explanation,
    InvalidExplanationError,
    explanation_from_functions,
    trivial_explanation,
)
from .cost import (
    compression_ratio,
    explanation_cost,
    function_description_length,
    insertion_description_length,
    partial_state_cost,
    trivial_explanation_cost,
)
from .search_state import MAP_MARKER, UNDECIDED, SearchState
from .blocking import (
    NOT_APPLICABLE,
    Block,
    BlockingResult,
    build_blocking,
    refine_blocking,
    refine_blocking_bounds,
)
from .colcache import (
    NOT_APPLICABLE_CODE,
    AttributeCodec,
    ColumnCache,
    ColumnCacheStats,
)
from .queue import BoundedLevelQueue, QueueEntry
from .sampling import (
    binomial_pmf,
    binomial_tail,
    cochran_sample_size,
    example_sample_size,
    generation_threshold,
    sample_concatenated,
)
from .evaluator import StateEvaluator
from .initialization import (
    empty_start_states,
    identity_start_states,
    overlap_start_states,
    start_states,
)
from .extension import Extension, StateExpander
from .affidavit import Affidavit, AffidavitResult, SearchProgress, explain_snapshots

__all__ = [
    "AffidavitConfig",
    "identity_configuration",
    "overlap_configuration",
    "START_EMPTY",
    "START_IDENTITY",
    "START_OVERLAP",
    "ProblemInstance",
    "Explanation",
    "InvalidExplanationError",
    "explanation_from_functions",
    "trivial_explanation",
    "explanation_cost",
    "trivial_explanation_cost",
    "compression_ratio",
    "insertion_description_length",
    "function_description_length",
    "partial_state_cost",
    "SearchState",
    "UNDECIDED",
    "MAP_MARKER",
    "Block",
    "BlockingResult",
    "build_blocking",
    "refine_blocking",
    "refine_blocking_bounds",
    "NOT_APPLICABLE",
    "NOT_APPLICABLE_CODE",
    "AttributeCodec",
    "ColumnCache",
    "ColumnCacheStats",
    "BoundedLevelQueue",
    "QueueEntry",
    "binomial_pmf",
    "binomial_tail",
    "example_sample_size",
    "generation_threshold",
    "cochran_sample_size",
    "sample_concatenated",
    "StateEvaluator",
    "start_states",
    "empty_start_states",
    "identity_start_states",
    "overlap_start_states",
    "Extension",
    "StateExpander",
    "engine_name",
    "Affidavit",
    "AffidavitResult",
    "SearchProgress",
    "explain_snapshots",
]
