"""Cross-state memoization of per-attribute function application.

The best-first search evaluates thousands of sibling states that share most
of their attribute assignments, and every evaluation ultimately applies the
same :class:`~repro.functions.base.AttributeFunction` to cells of the same
source column — once per cell per state in the row-wise engine.  Two facts
make that work massively redundant:

* the source snapshot never changes during a search, so an attribute's
  *distinct value domain* is fixed, and
* sibling states share most assignments, so the same ``(function,
  attribute)`` pair is evaluated over and over.

:class:`ColumnCache` therefore memoizes, per ``(function, attribute)`` key, a
lazily-filled *value map* ``{source value -> transformed value}``.  Whether a
whole column is transformed for blocking or a block sample's distinct values
are mapped for candidate ranking, each distinct value is pushed through the
function at most once per search — every further occurrence, in any block of
any state, is a dictionary lookup.

Cells on which a function is not applicable map to the
:data:`NOT_APPLICABLE` sentinel (rather than ``None``) so transformed
columns can be used directly as blocking-key components: the sentinel never
equals a target value, which keeps such records unaligned exactly as
Section 4.5 of the paper requires.

On top of the value maps the cache *dictionary-encodes* each attribute's
value domain: an :class:`AttributeCodec` assigns dense integer codes to the
values of an attribute (source values, target values and transformed values
share one code space per attribute, so equal values always get equal codes),
and every cached ``(function, attribute)`` transform also yields an integer
*code array* plus a code-to-code map.  Blocking, refinement and candidate
ranking then run on small integers instead of strings — key hashing, block
splitting and overlap counting all get markedly cheaper.
:data:`NOT_APPLICABLE` owns the reserved code
:data:`NOT_APPLICABLE_CODE`, which no real value is ever assigned, so
inapplicable cells keep missing every target code.

The cache is bounded (LRU over ``(function, attribute)`` value maps) and
keeps hit/miss/eviction counters that the search threads through
:class:`~repro.core.affidavit.SearchProgress` and the service layer's job
status, so operators can watch hit rates live.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataio import Table
from ..dataio.table import Column
from ..functions import AttributeFunction

#: Key component marking a source cell on which the assigned function failed.
#: (Shared with :mod:`repro.core.blocking`, which re-exports it.)
NOT_APPLICABLE = "\x00<not-applicable>"

#: The integer code reserved for :data:`NOT_APPLICABLE` in every attribute
#: codec.  No target value ever encodes to it, so encoded blocking keys keep
#: the sentinel's never-matches property.
NOT_APPLICABLE_CODE = 0


class AttributeCodec:
    """Dense integer codes for one attribute's value domain.

    One codec serves *every* column of the attribute — the raw source column,
    the target column and all transformed source columns — so two cells hold
    equal values exactly when they hold equal codes.  Codes are assigned on
    demand in first-need order; :data:`NOT_APPLICABLE` is pre-assigned the
    reserved :data:`NOT_APPLICABLE_CODE`.
    """

    __slots__ = ("_codes",)

    def __init__(self):
        self._codes: Dict[str, int] = {NOT_APPLICABLE: NOT_APPLICABLE_CODE}

    def __len__(self) -> int:
        return len(self._codes)

    def encode(self, value: str) -> int:
        """The code of *value*, assigning a fresh one on first sight."""
        code = self._codes.get(value)
        if code is None:
            self._codes[value] = code = len(self._codes)
        return code

    def code_of(self, value: str) -> Optional[int]:
        """The code of *value* if it has one already (no assignment)."""
        return self._codes.get(value)

    def __repr__(self) -> str:
        return f"AttributeCodec({len(self._codes)} codes)"


class _CacheEntry:
    """One cached ``(function, attribute)`` transform: the lazily-filled
    value map plus its dictionary-encoded derivatives."""

    __slots__ = ("mapping", "codes", "code_map")

    def __init__(self):
        #: value map {source value -> transformed value (or NOT_APPLICABLE)}
        self.mapping: Dict[str, str] = {}
        #: the transformed column as a packed ``array('i')`` code buffer
        #: (one code per source cell)
        self.codes: Optional[Sequence[int]] = None
        #: raw-source-value code -> transformed-value code
        self.code_map: Optional[List[int]] = None


def apply_with_sentinel(function: AttributeFunction,
                        column: Sequence[str]) -> List[str]:
    """Apply *function* to a whole column; inapplicable cells become the
    sentinel.  Uses the function's (possibly vectorised) ``apply_column``."""
    return [
        NOT_APPLICABLE if value is None else value
        for value in function.apply_column(column)
    ]


@dataclass(frozen=True)
class ColumnCacheStats:
    """Point-in-time snapshot of a :class:`ColumnCache`'s counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    max_entries: int = 0
    #: Total number of per-cell ``apply`` calls the cache performed.  The
    #: row-wise engine pays one per cell per lookup; the columnar engine one
    #: per *distinct* value per entry — the ratio is the engine's whole point.
    applications: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from an existing value map."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (benchmark output and job-status payloads)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "max_entries": self.max_entries,
            "applications": self.applications,
            "hit_rate": round(self.hit_rate, 4),
        }


class ColumnCache:
    """Memoizes per-attribute function application for one source table.

    Parameters
    ----------
    table:
        The source snapshot whose columns are transformed.  A cache instance
        is bound to exactly one table; the evaluator that owns it guarantees
        every lookup refers to this table's columns.
    max_entries:
        LRU bound on the number of cached ``(function, attribute)`` value
        maps.  One map holds at most one entry per distinct value of the
        attribute's column.
    enabled:
        When ``False`` the cache degrades to the row-wise fallback: every
        lookup recomputes with per-cell ``apply`` calls, exactly like the
        pre-columnar engine of the row-wise reference.  An enabled cache
        always dictionary-encodes: blocking and ranking consumers work on
        integer code arrays (:meth:`transformed_codes`,
        :meth:`encoded_column`, :meth:`code_map_for`).
    """

    __slots__ = ("_table", "_max_entries", "_enabled",
                 "_maps", "_codecs", "_source_codes", "_encoded_columns",
                 "_hits", "_misses", "_evictions", "_applications")

    def __init__(self, table: Table, *, max_entries: int = 512,
                 enabled: bool = True):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._table = table
        self._max_entries = max_entries
        self._enabled = enabled
        self._maps: "OrderedDict[Tuple[AttributeFunction, str], _CacheEntry]" = OrderedDict()
        self._codecs: Dict[str, AttributeCodec] = {}
        #: per attribute: (encoded source column, distinct values in
        #: first-occurrence order, their codec codes) — built once, the raw
        #: source column never changes during a search.  The encoded column
        #: is a packed ``array('i')`` buffer: 4 bytes per cell, contiguous,
        #: cheap to slice and to ship.
        self._source_codes: Dict[str, Tuple[Sequence[int], List[str], List[int]]] = {}
        #: encoded external columns (the instance's target columns), keyed by
        #: ``(attribute, id(column))``; the column object is pinned so the id
        #: stays unambiguous.
        self._encoded_columns: Dict[Tuple[str, int], Tuple[Sequence[str], Sequence[int]]] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._applications = 0

    @property
    def table(self) -> Table:
        return self._table

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def max_entries(self) -> int:
        return self._max_entries

    def __len__(self) -> int:
        return len(self._maps)

    # ------------------------------------------------------------------ #
    # value maps
    # ------------------------------------------------------------------ #
    def _entry(self, attribute: str,
               function: AttributeFunction) -> _CacheEntry:
        """The (lazily filled) cache entry of one ``(function, attribute)``
        key: value map plus its encoded derivatives.

        Functions flagged non-``cacheable`` (greedy value mappings, which are
        unique per search state) get a fresh throwaway entry so they cannot
        evict reusable ones.
        """
        if not function.cacheable:
            self._misses += 1
            return _CacheEntry()
        key = (function, attribute)
        cached = self._maps.get(key)
        if cached is not None:
            self._hits += 1
            self._maps.move_to_end(key)
            return cached
        self._misses += 1
        fresh = _CacheEntry()
        self._maps[key] = fresh
        while len(self._maps) > self._max_entries:
            self._maps.popitem(last=False)
            self._evictions += 1
        return fresh

    def _extend_map(self, mapping: Dict[str, str], function: AttributeFunction,
                    values: Sequence[str]) -> None:
        """Apply *function* to every value not in *mapping* yet."""
        apply = function.apply
        applications = 0
        for value in values:
            if value not in mapping:
                transformed = apply(value)
                mapping[value] = NOT_APPLICABLE if transformed is None else transformed
                applications += 1
        self._applications += applications

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def transformed(self, attribute: str,
                    function: AttributeFunction) -> Sequence[str]:
        """*function* applied to the whole *attribute* column (read-only):
        the row-wise reference's string columns.

        Identity functions return the table's column view itself — zero-copy
        and counted as a hit, since no application work happens.  A disabled
        cache applies any other function cell by cell, without memoization.
        An enabled cache serves code arrays only (:meth:`transformed_codes`)
        and rejects a non-identity function here.
        """
        column = self._table.column_view(attribute)
        if function.is_identity:
            # The identity never fails, so no sentinel substitution is needed.
            self._hits += 1
            return column
        if self._enabled:
            raise ValueError("string columns are served by the row-wise engine "
                             "only; use transformed_codes")
        self._misses += 1
        self._applications += len(column)
        return apply_with_sentinel(function, column)

    # ------------------------------------------------------------------ #
    # dictionary-encoded lookups
    # ------------------------------------------------------------------ #
    def codec(self, attribute: str) -> AttributeCodec:
        """The shared code dictionary of *attribute* (created on first use)."""
        codec = self._codecs.get(attribute)
        if codec is None:
            self._codecs[attribute] = codec = AttributeCodec()
        return codec

    def _source_domain(self, attribute: str) -> Tuple[Sequence[int], List[str], List[int]]:
        """``(encoded column, distinct values, their codes)`` of the raw
        source column — computed once per attribute via the column's cached
        dictionary encoding."""
        cached = self._source_codes.get(attribute)
        if cached is None:
            column = self._table.column_view(attribute)
            local_codes, codebook = column.dictionary()
            encode = self.codec(attribute).encode
            remap = [encode(value) for value in codebook]
            encoded = array("i", (remap[code] for code in local_codes))
            cached = (encoded, list(codebook), remap)
            self._source_codes[attribute] = cached
        return cached

    def source_value_codes(self, attribute: str) -> Sequence[int]:
        """The raw source column of *attribute* as a code array (read-only).

        This is also the transformed code array of the identity function —
        the identity never fails and maps every value to itself."""
        return self._source_domain(attribute)[0]

    def encoded_column(self, attribute: str, column: Sequence[str]) -> Sequence[int]:
        """*column* encoded through the attribute's codec (cached, read-only).

        Used for the instance's target columns, so blocking compares source
        codes against target codes within one shared code space.  The column
        object is pinned by the cache; callers pass stable column views of a
        frozen table.  Returns a packed ``array('i')`` buffer.
        """
        key = (attribute, id(column))
        cached = self._encoded_columns.get(key)
        if cached is not None:
            return cached[1]
        encode = self.codec(attribute).encode
        if isinstance(column, Column):
            local_codes, codebook = column.dictionary()
            remap = [encode(value) for value in codebook]
            encoded = array("i", (remap[code] for code in local_codes))
        else:
            encoded = array("i", (encode(value) for value in column))
        self._encoded_columns[key] = (column, encoded)
        return encoded

    def _code_map(self, attribute: str, function: AttributeFunction,
                  entry: _CacheEntry) -> List[int]:
        """The raw-source-code -> transformed-code map of one entry.

        Built once over the attribute's full distinct-value domain (the value
        map is extended to cover it), then reused by every blocking build,
        refinement and ranking of the search.  The list is sized to the
        largest source code, not to the codec, which keeps growing with every
        candidate's transformed values.  Codes below it that are not source
        codes map to :data:`NOT_APPLICABLE_CODE`; consumers only ever look up
        source codes.
        """
        code_map = entry.code_map
        if code_map is not None:
            return code_map
        _, values, source_codes = self._source_domain(attribute)
        mapping = entry.mapping
        self._extend_map(mapping, function, values)
        encode = self.codec(attribute).encode
        code_map = [NOT_APPLICABLE_CODE] * (
            max(source_codes, default=NOT_APPLICABLE_CODE) + 1)
        for source_code, value in zip(source_codes, values):
            code_map[source_code] = encode(mapping[value])
        entry.code_map = code_map
        return code_map

    def transformed_codes(self, attribute: str,
                          function: AttributeFunction) -> Sequence[int]:
        """*function* applied to the whole *attribute* column, as a code array.

        The integer counterpart of :meth:`transformed`: element *i* is the
        code of the transformed value of cell *i* (``NOT_APPLICABLE_CODE``
        where the function is inapplicable).  Cached alongside the entry's
        value map, so repeated blocking builds and refinements of any state
        sharing the assignment reuse one array.
        """
        if function.is_identity:
            self._hits += 1
            return self.source_value_codes(attribute)
        if not self._enabled:
            raise ValueError("code arrays require the columnar engine")
        entry = self._entry(attribute, function)
        codes = entry.codes
        if codes is None:
            code_map = self._code_map(attribute, function, entry)
            codes = array("i", (
                code_map[code] for code in self.source_value_codes(attribute)
            ))
            entry.codes = codes
        return codes

    def code_map_for(self, attribute: str,
                     function: AttributeFunction) -> Optional[List[int]]:
        """The raw-source-code -> transformed-code map of *function*.

        Candidate ranking takes each candidate's image of a block sample's
        source codes from this list in one C-level gather.  One call is one
        cache lookup, so the hit/miss counters count candidates, not blocks.
        The identity returns ``None`` (counted as a hit): its image of a code
        is the code itself.  :data:`NOT_APPLICABLE_CODE` marks inapplicable
        values and never matches a target code.
        """
        if function.is_identity:
            self._hits += 1
            return None
        if not self._enabled:
            raise ValueError("code maps require the columnar engine")
        return self._code_map(attribute, function, self._entry(attribute, function))

    # ------------------------------------------------------------------ #
    # maintenance and statistics
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._maps.clear()

    def stats(self) -> ColumnCacheStats:
        """A consistent snapshot of the counters."""
        return ColumnCacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            entries=len(self._maps),
            max_entries=self._max_entries,
            applications=self._applications,
        )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ColumnCache({stats.entries}/{stats.max_entries} entries, "
            f"{stats.hits} hits, {stats.misses} misses, "
            f"{stats.applications} applications, "
            f"hit rate {stats.hit_rate:.0%})"
        )
