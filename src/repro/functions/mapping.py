"""Value-mapping functions: explicit lookup tables ``x ↦ y_i if x = x_i``.

Value mappings are the most expressive — and most expensive — family of the
language: every entry costs two parameters (the key and the value), so the MDL
cost grows linearly with the number of entries (Definition 3.9).  They are the
fallback when no concise meta function explains an attribute (e.g. a reshuffled
surrogate primary key), and the paper therefore resolves them only at the very
end of the search when the record alignment is maximally constrained.

Unlike the other families, value mappings are *not* induced from single
examples; :func:`repro.linking.alignment.induce_greedy_mapping` builds them
from a block-respecting record alignment.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from .base import AttributeFunction, MetaFunction


class ValueMapping(AttributeFunction):
    """An explicit lookup table; ``apply`` returns ``None`` for unknown keys.

    Every entry costs two parameters (its key and its image), matching the
    worked example in Section 3.1 where the 13-entry mappings of the running
    example cost 26 each — identity-like entries such as ``'0001' ↦ '0001'``
    are counted as well because the mapping must still list them to cover the
    corresponding records.
    """

    meta_name = "value_mapping"

    #: Greedy maps are induced from a per-state record alignment, so the same
    #: mapping object is essentially never looked up twice — memoizing them
    #: would only evict reusable entries from the column cache.
    cacheable = False

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, str]):
        frozen = {str(key): str(value) for key, value in entries.items()}
        self._entries = MappingProxyType(frozen)

    @property
    def entries(self) -> Mapping[str, str]:
        return self._entries

    @property
    def size(self) -> int:
        """Total number of entries (including identity-like ones)."""
        return len(self._entries)

    def apply(self, value: str) -> Optional[str]:
        return self._entries.get(value)

    def apply_column(self, values: Sequence[str]) -> List[Optional[str]]:
        return list(map(self._entries.get, values))

    def __reduce__(self):
        # MappingProxyType (and __slots__) defeat the default pickle protocol;
        # rebuilding through __init__ keeps greedy mappings picklable.
        return (type(self), (dict(self._entries),))

    @property
    def description_length(self) -> int:
        return 2 * len(self._entries)

    @property
    def parameters(self) -> Tuple[object, ...]:
        return tuple(sorted(self._entries.items()))

    def restricted_to(self, keys: Iterable[str]) -> "ValueMapping":
        """A new mapping keeping only the entries whose key is in *keys*."""
        wanted = set(keys)
        return ValueMapping({k: v for k, v in self._entries.items() if k in wanted})

    def merged_with(self, other: "ValueMapping") -> "ValueMapping":
        """A new mapping combining both entry sets (*other* wins conflicts)."""
        combined = dict(self._entries)
        combined.update(other.entries)
        return ValueMapping(combined)

    def __repr__(self) -> str:
        preview = dict(list(self._entries.items())[:3])
        suffix = "..." if len(self._entries) > 3 else ""
        return f"ValueMapping({len(self._entries)} entries, e.g. {preview}{suffix})"


class SingleValueMappingMeta(MetaFunction):
    """Induces a one-entry mapping ``source ↦ target`` from an example.

    This family exists mainly for completeness of the induction interface and
    for the NP-hardness experiments; the search never prefers a one-entry
    mapping over cheaper families because its description length (2) already
    exceeds most alternatives.
    """

    name = "value_mapping"

    def induce(self, source_value: str, target_value: str) -> Iterable[AttributeFunction]:
        if source_value != target_value:
            yield ValueMapping({source_value: target_value})


class BooleanNegation(AttributeFunction):
    """Swap ``'0'`` and ``'1'`` and act as identity elsewhere; zero parameters.

    Used by the 3-SAT reduction (Theorem 3.12), where the only two allowed
    attribute functions are the identity and this negation.
    """

    meta_name = "boolean_negation"

    _FLIP = {"0": "1", "1": "0"}

    def apply(self, value: str) -> Optional[str]:
        return self._FLIP.get(value, value)

    @property
    def description_length(self) -> int:
        return 0

    @property
    def parameters(self) -> Tuple[object, ...]:
        return ()

    def __repr__(self) -> str:
        return "BooleanNegation()"


BOOLEAN_NEGATION = BooleanNegation()


class BooleanNegationMeta(MetaFunction):
    """Induces :class:`BooleanNegation` when it visibly flips the example."""

    name = "boolean_negation"

    def induce(self, source_value: str, target_value: str) -> Iterable[AttributeFunction]:
        if source_value != target_value and BOOLEAN_NEGATION.covers(source_value, target_value):
            yield BOOLEAN_NEGATION
