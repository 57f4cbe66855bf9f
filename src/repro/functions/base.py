"""Abstract interfaces of the transformation-function language.

The paper distinguishes *meta functions* (parameterised function families such
as "Addition" or "Prefix Replacement", Table 1) from *attribute functions*
(concrete instantiations such as ``x ↦ x + 5``).  A problem instance's
function pool :math:`\\mathcal{F}` implicitly contains every instantiation of
the configured meta functions that maps at least one source value to a target
value of the same attribute.

Two properties drive the search:

* ``description_length`` (:math:`\\psi(f)`) — the number of data values needed
  to instantiate the function from its meta function; it is the second term of
  the MDL cost (Definition 3.9).
* ``induce`` on the meta function — given a *single* noisy input–output
  example, propose every instantiation consistent with it.  Families whose
  parameters are not learnable from one example (e.g. general linear
  functions) are outside the supported language, exactly as in the paper
  (Section 4.4.1).
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional, Sequence, Tuple


class AttributeFunction(abc.ABC):
    """A concrete value transformation ``f : value -> value`` for one attribute.

    Implementations must be immutable, hashable and comparable so that the
    search can deduplicate candidate functions and search states.
    """

    #: Name of the meta function this instantiation belongs to.
    meta_name: str = "abstract"

    #: Whether :class:`~repro.core.colcache.ColumnCache` may memoize whole-column
    #: applications of this function.  Families whose instantiations are almost
    #: never looked up twice (value mappings induced from per-state alignments)
    #: opt out to keep the cache free of one-shot entries.
    cacheable: bool = True

    @abc.abstractmethod
    def apply(self, value: str) -> Optional[str]:
        """Transform *value*, or return ``None`` when the function is not
        applicable to it (e.g. numeric addition on a non-numeric cell)."""

    def apply_column(self, values: Sequence[str]) -> List[Optional[str]]:
        """Apply to a whole column at once; inapplicable cells become ``None``.

        The default is the row-wise fallback ``[self.apply(v) for v in values]``
        so every existing function family works unchanged; families with a
        cheaper bulk form (identity, value mappings) override this.
        """
        apply = self.apply
        return [apply(value) for value in values]

    @property
    @abc.abstractmethod
    def description_length(self) -> int:
        """:math:`\\psi(f)` — number of parameters of the instantiation."""

    @property
    @abc.abstractmethod
    def parameters(self) -> Tuple[object, ...]:
        """The instantiation parameters (used for equality and display)."""

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def covers(self, source_value: str, target_value: str) -> bool:
        """``True`` when this function maps *source_value* to *target_value*."""
        return self.apply(source_value) == target_value

    @property
    def is_identity(self) -> bool:
        """``True`` only for the identity function (overridden there)."""
        return False

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AttributeFunction):
            return (self.meta_name, self.parameters) == (other.meta_name, other.parameters)
        return NotImplemented

    #: The cached :meth:`__hash__` (computed on first use, per instance).
    _hash: Optional[int] = None

    def __hash__(self) -> int:
        # Functions are immutable and used as dict keys constantly (column
        # cache entries, interned induction ids, search states), while the
        # parameter tuple of a large value mapping costs O(n log n) to
        # build: hash exactly once.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self.meta_name, self.parameters))
        return cached

    def __getstate__(self):
        # The default pickle state minus the cached hash, which must not
        # travel: another process may hash strings with a different
        # PYTHONHASHSEED.  Spelled out because ``object.__getstate__`` only
        # exists from Python 3.11 on.
        instance_dict = {
            key: value for key, value in self.__dict__.items() if key != "_hash"
        }
        slots = {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in cls.__dict__.get("__slots__", ())
            if hasattr(self, name)
        }
        return (instance_dict or None, slots) if slots else instance_dict

    def __repr__(self) -> str:
        params = ", ".join(repr(p) for p in self.parameters)
        return f"{type(self).__name__}({params})"


class MetaFunction(abc.ABC):
    """A parameterised family of attribute functions (one row of Table 1)."""

    #: Unique name of the family, e.g. ``"addition"``.
    name: str = "abstract"

    @abc.abstractmethod
    def induce(self, source_value: str, target_value: str) -> Iterable[AttributeFunction]:
        """All instantiations consistent with one input–output example.

        The example may be noisy (wrong alignment, inserted/deleted record),
        so implementations must not raise on uninterpretable values — they
        simply yield nothing.
        """

    def __repr__(self) -> str:
        return f"<meta function {self.name!r}>"


def induce_from_example(meta_functions: Sequence[MetaFunction], source_value: str,
                        target_value: str) -> list:
    """Collect the candidate functions of all *meta_functions* for one example."""
    candidates = []
    for meta in meta_functions:
        candidates.extend(meta.induce(source_value, target_value))
    return candidates
