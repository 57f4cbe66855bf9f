"""Blocking of source and target records under a search state (Defs. 4.3/4.4).

The blocking index of a record is its projection to the attributes whose
functions are already decided; source cells are transformed with those
functions first.  Records sharing an index form a *block* — only records in
the same block can end up aligned in any end state reachable from the current
state, which is what makes the lower bounds :math:`c_t` and :math:`c_s`
(Section 4.5) sound.

**Layout.**  A :class:`BlockingResult` is one ``array('i')`` block id per
source row, one per target row, and the block count — no object per block.
The search keeps the blockings of its most recent states in an LRU, so this
is what stays on the heap between expansions.  :class:`Block` views (each
block's ascending source and target row ids) are built on demand by
:meth:`BlockingResult.mixed_blocks` for the state being expanded and are
dropped with its expansion.

**One kernel.**  A fresh build keys each row by the components of its decided
attributes; :meth:`BlockingResult.refine` keys it by the pair ``(parent block
id, new component)``, so refining never re-derives the components of
already-decided attributes.  A component is an integer code from the column
cache's dictionary encoding (:class:`~repro.core.colcache.AttributeCodec`)
under the columnar engine and a transformed cell value under the row-wise
reference engine; codecs are
per-attribute bijections, so both group identically and share one code path:
``dict.fromkeys`` numbers the keys and ``Counter`` counts them, both in C.
With :math:`m = \\sum_k \\min(s_k, t_k)` over the per-key source and target
counts, the bounds are :math:`c_s = |S| - m` and :math:`c_t = |T| - m`.

**Order invariant.**  The search's random draws index blocks by position, so
block ids follow one fixed order:

* a fresh build numbers keys in the order they are first seen over the
  source rows, then the target-only keys first seen over the target rows;
* a refinement numbers children parent by parent; within a parent, the
  children first seen among its source rows come first, then its target-only
  children (a stable sort of the distinct keys by parent id);
* row ids within a block view are ascending;
* the empty state is one block of all rows, even when a side has no rows.

Source cells on which an assigned function is not applicable receive a
sentinel component (the reserved
:data:`~repro.core.colcache.NOT_APPLICABLE_CODE` under the columnar engine)
that never matches a target value, so such records are guaranteed to stay
unaligned under this state.

The greedy-map benchmark of the extension step scores every candidate by the
bounds of its refined blocking and discards almost all of them;
:meth:`BlockingResult.refined_bounds` counts the refined keys without
numbering them.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..dataio import Table
from ..functions import AttributeFunction
# NOT_APPLICABLE is re-exported (aliased) for the existing importers of this
# module; the sentinel itself now lives with the column cache.
from .colcache import NOT_APPLICABLE as NOT_APPLICABLE
from .colcache import ColumnCache, apply_with_sentinel
from .instance import ProblemInstance
from .search_state import SearchState


@dataclass
class Block:
    """Source and target row ids sharing one blocking index (a view)."""

    source_ids: List[int] = field(default_factory=list)
    target_ids: List[int] = field(default_factory=list)

    @property
    def is_mixed(self) -> bool:
        """True when the block holds both source and target records."""
        return bool(self.source_ids) and bool(self.target_ids)

    @property
    def surplus_targets(self) -> int:
        """Target records that can impossibly be aligned within this block."""
        return max(0, len(self.target_ids) - len(self.source_ids))

    @property
    def surplus_sources(self) -> int:
        """Source records that can impossibly be aligned within this block."""
        return max(0, len(self.source_ids) - len(self.target_ids))

    def __repr__(self) -> str:
        return f"Block({len(self.source_ids)} source, {len(self.target_ids)} target)"


class BlockingResult:
    """The set of blocks :math:`\\Phi_H` of one search state.

    ``source_blocks[i]`` / ``target_blocks[j]`` is the block id of source row
    *i* / target row *j*; ids run from 0 to ``n_blocks - 1`` in the order of
    the module's order invariant.  Treat the arrays as read-only.  The
    ``(c_t, c_s)`` bounds are memoized; block views are not.
    """

    __slots__ = ("source_blocks", "target_blocks", "n_blocks", "_bounds")

    def __init__(self, source_blocks: array, target_blocks: array, n_blocks: int):
        self.source_blocks = source_blocks
        self.target_blocks = target_blocks
        self.n_blocks = n_blocks
        self._bounds: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # block views
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.n_blocks

    def __iter__(self) -> Iterator[Block]:
        return iter(self.views())

    def _views_of(self, block_ids: Sequence[int]) -> List[Block]:
        """Fresh views of the blocks *block_ids* (ascending), in that order.

        Only the rows of those blocks are walked in Python; selecting them
        is one C-level pass per side."""
        sources: Dict[int, List[int]] = {block_id: [] for block_id in block_ids}
        targets: Dict[int, List[int]] = {block_id: [] for block_id in block_ids}
        for blocks, rows in ((self.source_blocks, sources),
                             (self.target_blocks, targets)):
            selected = list(map(rows.__contains__, blocks))
            for row, block_id in zip(compress(range(len(blocks)), selected),
                                     compress(blocks, selected)):
                rows[block_id].append(row)
        return [Block(source_ids, target_ids)
                for source_ids, target_ids in zip(sources.values(), targets.values())]

    def views(self) -> List[Block]:
        """Every block as a fresh :class:`Block` view, in block-id order."""
        return self._views_of(range(self.n_blocks))

    def mixed_blocks(self) -> List[Block]:
        """Fresh views of the blocks holding both source and target records,
        in block-id order.  Built on every call: the expander builds them
        once per expansion and drops them with it."""
        return self._views_of(
            sorted(set(self.source_blocks).intersection(self.target_blocks))
        )

    # ------------------------------------------------------------------ #
    # lower bounds of Section 4.5
    # ------------------------------------------------------------------ #
    def unaligned_target_bound(self) -> int:
        """``c_t(H)`` — target records that cannot be aligned under this state."""
        return self.unaligned_bounds()[0]

    def unaligned_source_bound(self) -> int:
        """``c_s(H)`` — source records that cannot be aligned under this state."""
        return self.unaligned_bounds()[1]

    def unaligned_bounds(self) -> Tuple[int, int]:
        """Both lower bounds ``(c_t(H), c_s(H))`` (memoized)."""
        if self._bounds is None:
            self._bounds = count_bounds(self.source_blocks, self.target_blocks)
        return self._bounds

    # ------------------------------------------------------------------ #
    # refinement
    # ------------------------------------------------------------------ #
    def refine(self, source_components: Sequence,
               target_components: Sequence) -> "BlockingResult":
        """Split every block by one additional key component per record.

        *source_components* / *target_components* give the new component for
        each source / target row id — integer code arrays under the encoded
        engine, transformed cell values otherwise.  Refining is how the
        search cheaply evaluates an extension of an already-blocked state
        instead of re-blocking from scratch.
        """
        return _number_keys(
            list(zip(self.source_blocks, source_components)),
            list(zip(self.target_blocks, target_components)),
            by_parent=True,
        )

    def refined_bounds(self, source_components: Sequence,
                       target_components: Sequence) -> Tuple[int, int]:
        """``(c_t, c_s)`` of :meth:`refine`'s result, without numbering its
        blocks or building its arrays."""
        return count_bounds(
            zip(self.source_blocks, source_components),
            zip(self.target_blocks, target_components),
        )

    def __repr__(self) -> str:
        mixed = len(set(self.source_blocks).intersection(self.target_blocks))
        return f"BlockingResult({self.n_blocks} blocks, {mixed} mixed)"


def count_bounds(source_keys: Iterable[Hashable],
                 target_keys: Iterable[Hashable]) -> Tuple[int, int]:
    """``(c_t, c_s)`` of the grouping of rows by key: with *m* the number of
    rows matchable within their key (``sum(min(s_k, t_k))``), every other
    target row adds to ``c_t`` and every other source row to ``c_s``.

    Used for materialised blockings (block ids as keys), for bounds-only
    refinement (``(block id, component)`` keys).
    """
    source_counts = Counter(source_keys)
    target_counts = Counter(target_keys)
    shared = source_counts.keys() & target_counts.keys()
    matched = sum(map(
        min,
        map(source_counts.__getitem__, shared),
        map(target_counts.__getitem__, shared),
    ))
    return (
        sum(target_counts.values()) - matched,
        sum(source_counts.values()) - matched,
    )


def _number_keys(source_keys: Sequence[Hashable], target_keys: Sequence[Hashable],
                 *, by_parent: bool) -> BlockingResult:
    """Number the distinct keys of the rows as block ids (the order
    invariant of the module docstring); with *by_parent*, keys are
    ``(parent block id, component)`` pairs."""
    distinct = dict.fromkeys(chain(source_keys, target_keys))
    order = sorted(distinct, key=itemgetter(0)) if by_parent else distinct
    block_ids = dict(zip(order, range(len(distinct))))
    return BlockingResult(
        array("i", map(block_ids.__getitem__, source_keys)),
        array("i", map(block_ids.__getitem__, target_keys)),
        len(block_ids),
    )


def max_distinct_source_values(blocks: Iterable[Block], column: Sequence) -> int:
    """Indeterminacy estimate of an attribute (Section 4.3).

    The maximum number of distinct values of *column* (the attribute's
    source column) over the source rows of each of *blocks* — the mixed
    blocks of a state: an upper bound on how many source values could be
    the origin of a target value of that attribute.
    """
    maximum = 0
    for block in blocks:
        # A block's distinct count is bounded by its size; blocks that
        # cannot beat the current maximum are skipped without building
        # the value set (exact, since only the maximum is reported).
        if len(block.source_ids) <= maximum:
            continue
        distinct = len({column[source_id] for source_id in block.source_ids})
        if distinct > maximum:
            maximum = distinct
    return maximum


def transformed_column(table: Table, attribute: str,
                       function: AttributeFunction) -> List[str]:
    """Apply *function* to one column; inapplicable cells become the sentinel.

    Goes through the function's ``apply_column`` hook, so families with a
    bulk form (identity, value mappings) get it even on the uncached path.
    """
    return apply_with_sentinel(function, table.column_view(attribute))


def blocking_components(instance: ProblemInstance, attribute: str,
                        function: AttributeFunction,
                        cache: Optional[ColumnCache],
                        ) -> Tuple[Sequence, Sequence]:
    """The per-record key components one attribute contributes to blocking.

    Returns ``(source components, target components)``: integer code arrays
    served by an enabled cache's codec under the columnar engine, the
    transformed source column and the raw target column under the row-wise
    engine (disabled cache, or none).  Fresh builds,
    :func:`refine_blocking` and :func:`refine_blocking_bounds` all consume
    exactly this pair.
    """
    target_column = instance.target.column_view(attribute)
    if cache is not None and cache.enabled:
        return (
            cache.transformed_codes(attribute, function),
            cache.encoded_column(attribute, target_column),
        )
    if cache is not None:
        return cache.transformed(attribute, function), target_column
    return transformed_column(instance.source, attribute, function), target_column


def build_blocking(instance: ProblemInstance, state: SearchState,
                   cache: Optional[ColumnCache] = None) -> BlockingResult:
    """Compute :math:`\\Phi_H` from scratch for *state*.

    When *cache* is given, source columns are transformed through the
    column cache, so a function applied once to a column is reused by every
    search state that shares that assignment; with dictionary encoding
    active, the keys are zipped from packed ``array('i')`` code buffers.
    """
    decided = state.decided_functions
    if not decided:
        return BlockingResult(
            array("i", bytes(4 * instance.n_source_records)),
            array("i", bytes(4 * instance.n_target_records)),
            1,
        )

    source_columns: List[Sequence] = []
    target_columns: List[Sequence] = []
    for attribute in instance.schema:
        if attribute in decided:
            source_components, target_components = blocking_components(
                instance, attribute, decided[attribute], cache
            )
            source_columns.append(source_components)
            target_columns.append(target_components)
    # zip walks all decided columns in lockstep, which is markedly faster
    # than indexing each column per row.
    return _number_keys(list(zip(*source_columns)), list(zip(*target_columns)),
                        by_parent=False)


def refine_blocking(instance: ProblemInstance, blocking: BlockingResult,
                    attribute: str, function: AttributeFunction,
                    cache: Optional[ColumnCache] = None) -> BlockingResult:
    """Refine an existing blocking by additionally deciding one attribute."""
    source_components, target_components = blocking_components(
        instance, attribute, function, cache
    )
    return blocking.refine(source_components, target_components)


def refine_blocking_bounds(instance: ProblemInstance, blocking: BlockingResult,
                           attribute: str, function: AttributeFunction,
                           cache: Optional[ColumnCache] = None) -> Tuple[int, int]:
    """``(c_t, c_s)`` of :func:`refine_blocking`'s result, bounds only.

    The fast path of the greedy-map benchmark (see
    :meth:`BlockingResult.refined_bounds`).
    """
    source_components, target_components = blocking_components(
        instance, attribute, function, cache
    )
    return blocking.refined_bounds(source_components, target_components)
