"""Cell-value helpers shared by the tabular substrate and the function language.

The paper treats every cell as a string; numeric meta functions such as
*Addition* or *Division* interpret those strings as numbers and must render
their results back to strings.  This module centralises the parsing and
formatting conventions so that all meta functions behave consistently:

* integers stay integers (``"80000" / 1000`` renders as ``"80"``),
* decimal results drop a trailing ``.0`` and trailing zeros
  (``"6540" / 1000`` renders as ``"6.54"``),
* non-numeric strings simply fail to parse and the numeric functions refuse
  to transform them.
"""

from __future__ import annotations

from decimal import Context, Decimal, InvalidOperation
from functools import lru_cache
from typing import Optional

#: Cells equal to one of these strings are treated as missing values by the
#: dataset generators and by the overlap matcher (they are too frequent to be
#: informative for blocking).
MISSING_TOKENS = frozenset({"", "-", "?", "NULL", "null", "NaN", "nan", "None"})

#: The arithmetic context of normalisation, division and multiplication:
#: 34 significant digits (IEEE decimal128), otherwise the default context's
#: rounding, exponent limits and traps.
_PREC34 = Context(prec=34)

#: Bound of each value-level memo.  Parsing and formatting are pure, and
#: induction asks for the same cell over and over (once per value pair it
#: takes part in), so each distinct value is analysed once.
VALUE_CACHE_SIZE = 4096


def is_missing(value: str) -> bool:
    """Return ``True`` if *value* denotes a missing/placeholder cell."""
    return value in MISSING_TOKENS


@lru_cache(maxsize=VALUE_CACHE_SIZE)
def parse_number(value: str) -> Optional[Decimal]:
    """Parse *value* as a decimal number, or return ``None``.

    Only plain integer and decimal literals (optionally signed) are accepted;
    strings with exponents, thousands separators, currency symbols or
    surrounding whitespace other than leading/trailing spaces are rejected.
    This mirrors the conservative behaviour of the paper's prototype: a
    numeric meta function is only applicable when the cell is unambiguously
    numeric.
    """
    text = value.strip()
    if not text:
        return None
    body = text[1:] if text[0] in "+-" else text
    if not body:
        return None
    if body.count(".") > 1:
        return None
    digits = body.replace(".", "", 1)
    if not digits.isdigit():
        return None
    try:
        return Decimal(text)
    except InvalidOperation:  # pragma: no cover - guarded by the checks above
        return None


def is_numeric(value: str) -> bool:
    """Return ``True`` if :func:`parse_number` would succeed on *value*."""
    return parse_number(value) is not None


@lru_cache(maxsize=VALUE_CACHE_SIZE, typed=True)
def format_number(number: Decimal) -> str:
    """Render a :class:`~decimal.Decimal` using the library's conventions.

    Integral values are printed without a decimal point, fractional values
    are normalised (no trailing zeros, no scientific notation).  Equal
    numbers (``1.5`` and ``1.50``, ``0`` and ``-0``) render alike, so the
    memo may answer one with the other.
    """
    normalized = number.normalize(_PREC34)
    sign, digits, exponent = normalized.as_tuple()
    if exponent >= 0:
        # Normalisation can produce exponent notation for round numbers
        # (e.g. 8E+1); expand it back to plain digits.
        quantized = normalized.to_integral_value()
        return str(int(quantized))
    text = format(normalized, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in {"", "-"} else "0"


def add_strings(value: str, delta: Decimal) -> Optional[str]:
    """Numeric addition on string cells; ``None`` when *value* is not numeric."""
    number = parse_number(value)
    if number is None:
        return None
    return format_number(number + delta)


def divide_strings(value: str, divisor: Decimal) -> Optional[str]:
    """Numeric division on string cells; ``None`` on non-numeric input or /0."""
    if divisor == 0:
        return None
    number = parse_number(value)
    if number is None:
        return None
    return format_number(_PREC34.divide(number, divisor))


def multiply_strings(value: str, factor: Decimal) -> Optional[str]:
    """Numeric multiplication on string cells; ``None`` on non-numeric input."""
    number = parse_number(value)
    if number is None:
        return None
    return format_number(_PREC34.multiply(number, factor))


def common_prefix_length(left: str, right: str) -> int:
    """Length of the longest common prefix of two strings."""
    limit = min(len(left), len(right))
    index = 0
    while index < limit and left[index] == right[index]:
        index += 1
    return index


def common_suffix_length(left: str, right: str) -> int:
    """Length of the longest common suffix of two strings."""
    limit = min(len(left), len(right))
    index = 0
    while index < limit and left[-1 - index] == right[-1 - index]:
        index += 1
    return index
