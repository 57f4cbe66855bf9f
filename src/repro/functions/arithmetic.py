"""Numeric meta functions: addition, division and multiplication.

All three operate on string cells that parse as plain decimal numbers (see
:mod:`repro.dataio.values`).  Subtraction is covered by addition with a
negative operand; multiplication is the inverse variant of division mentioned
in Table 1 of the paper.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Iterable, Optional, Tuple

from ..dataio import values as value_helpers
from .base import AttributeFunction, MetaFunction


def _as_decimal(value: Decimal | int | float | str) -> Decimal:
    """*value* as a :class:`Decimal`; a ``Decimal`` is taken as is (its
    ``str`` round trip is exact), anything else goes through ``str`` so
    that floats keep their short decimal spelling."""
    return value if type(value) is Decimal else Decimal(str(value))


class Addition(AttributeFunction):
    """``x ↦ x + y`` on numeric cells; one parameter ``y`` (may be negative)."""

    meta_name = "addition"

    __slots__ = ("_delta",)

    def __init__(self, delta: Decimal | int | float | str):
        # Normalise so that equivalent parameters (e.g. 1E+3 and 1000) compare
        # and hash equal — important for aggregating induced candidates.
        self._delta = Decimal(value_helpers.format_number(_as_decimal(delta)))

    @property
    def delta(self) -> Decimal:
        return self._delta

    def apply(self, value: str) -> Optional[str]:
        return value_helpers.add_strings(value, self._delta)

    @property
    def description_length(self) -> int:
        return 1

    @property
    def parameters(self) -> Tuple[object, ...]:
        return (str(self._delta),)

    def __repr__(self) -> str:
        return f"Addition({value_helpers.format_number(self._delta)})"


class Division(AttributeFunction):
    """``x ↦ x / y`` on numeric cells; one parameter ``y`` (non-zero)."""

    meta_name = "division"

    __slots__ = ("_divisor",)

    def __init__(self, divisor: Decimal | int | float | str):
        divisor = _as_decimal(divisor)
        if divisor == 0:
            raise ValueError("division by zero is not a valid attribute function")
        self._divisor = Decimal(value_helpers.format_number(divisor))

    @property
    def divisor(self) -> Decimal:
        return self._divisor

    def apply(self, value: str) -> Optional[str]:
        return value_helpers.divide_strings(value, self._divisor)

    @property
    def description_length(self) -> int:
        return 1

    @property
    def parameters(self) -> Tuple[object, ...]:
        return (str(self._divisor),)

    def __repr__(self) -> str:
        return f"Division({value_helpers.format_number(self._divisor)})"


class Multiplication(AttributeFunction):
    """``x ↦ x * y`` on numeric cells; one parameter ``y`` (inverse of division)."""

    meta_name = "multiplication"

    __slots__ = ("_factor",)

    def __init__(self, factor: Decimal | int | float | str):
        self._factor = Decimal(value_helpers.format_number(_as_decimal(factor)))

    @property
    def factor(self) -> Decimal:
        return self._factor

    def apply(self, value: str) -> Optional[str]:
        return value_helpers.multiply_strings(value, self._factor)

    @property
    def description_length(self) -> int:
        return 1

    @property
    def parameters(self) -> Tuple[object, ...]:
        return (str(self._factor),)

    def __repr__(self) -> str:
        return f"Multiplication({value_helpers.format_number(self._factor)})"


class AdditionMeta(MetaFunction):
    """Induces ``x ↦ x + (target - source)`` from numeric examples."""

    name = "addition"

    def induce(self, source_value: str, target_value: str) -> Iterable[AttributeFunction]:
        source = value_helpers.parse_number(source_value)
        target = value_helpers.parse_number(target_value)
        if source is None or target is None:
            return
        delta = target - source
        if delta == 0:
            return  # indistinguishable from identity, strictly more expensive
        candidate = Addition(delta)
        if candidate.covers(source_value, target_value):
            yield candidate


class DivisionMeta(MetaFunction):
    """Induces ``x ↦ x / (source / target)`` when the magnitude shrinks."""

    name = "division"

    def induce(self, source_value: str, target_value: str) -> Iterable[AttributeFunction]:
        source = value_helpers.parse_number(source_value)
        target = value_helpers.parse_number(target_value)
        if source is None or target is None or target == 0 or source == 0:
            return
        divisor = source / target
        if divisor in (0, 1):
            return
        # Only propose division when the value actually shrinks in magnitude;
        # the growing direction is handled by MultiplicationMeta.  This avoids
        # generating two syntactically different but semantically identical
        # candidates per example.
        if abs(divisor) < 1:
            return
        candidate = Division(divisor)
        if candidate.covers(source_value, target_value):
            yield candidate


class MultiplicationMeta(MetaFunction):
    """Induces ``x ↦ x * (target / source)`` when the magnitude grows."""

    name = "multiplication"

    def induce(self, source_value: str, target_value: str) -> Iterable[AttributeFunction]:
        source = value_helpers.parse_number(source_value)
        target = value_helpers.parse_number(target_value)
        if source is None or target is None or source == 0:
            return
        factor = target / source
        if factor in (0, 1):
            return
        if abs(factor) <= 1:
            return
        candidate = Multiplication(factor)
        if candidate.covers(source_value, target_value):
            yield candidate
