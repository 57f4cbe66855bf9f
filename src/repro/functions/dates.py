"""Date-conversion meta function (the extension mentioned in Section 6).

The paper's future-work section notes that support for date conversions was
recently added to the prototype: an example such as ``'Sep 31 2019' ↦
'20190931'`` is enough to learn which date components the source format
carries and how the target format arranges them.  This module implements a
pragmatic version of that idea over a fixed set of common date formats; the
learnt parameters are the (source format, target format) pair, giving the
family a description length of 2.
"""

from __future__ import annotations

import datetime as _dt
import re
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

from ..dataio.values import VALUE_CACHE_SIZE
from .base import AttributeFunction, MetaFunction

#: Formats the converter understands, ordered roughly by ambiguity (the least
#: ambiguous first).  Each entry is (name, strptime pattern, regex guard).
_FORMATS: List[Tuple[str, str, re.Pattern]] = [
    ("yyyymmdd", "%Y%m%d", re.compile(r"^\d{8}$")),
    ("yyyy-mm-dd", "%Y-%m-%d", re.compile(r"^\d{4}-\d{2}-\d{2}$")),
    ("yyyy/mm/dd", "%Y/%m/%d", re.compile(r"^\d{4}/\d{2}/\d{2}$")),
    ("dd.mm.yyyy", "%d.%m.%Y", re.compile(r"^\d{2}\.\d{2}\.\d{4}$")),
    ("dd/mm/yyyy", "%d/%m/%Y", re.compile(r"^\d{2}/\d{2}/\d{4}$")),
    ("mm/dd/yyyy", "%m/%d/%Y", re.compile(r"^\d{2}/\d{2}/\d{4}$")),
    ("mon dd yyyy", "%b %d %Y", re.compile(r"^[A-Za-z]{3} \d{1,2} \d{4}$")),
    ("dd mon yyyy", "%d %b %Y", re.compile(r"^\d{1,2} [A-Za-z]{3} \d{4}$")),
]

_FORMAT_BY_NAME = {name: pattern for name, pattern, _ in _FORMATS}


@lru_cache(maxsize=VALUE_CACHE_SIZE)
def _detected_formats(value: str) -> Tuple[str, ...]:
    """:func:`detect_formats` as a memoised tuple: induction asks about the
    same cell once per value pair it takes part in."""
    matches = []
    for name, pattern, guard in _FORMATS:
        if not guard.match(value):
            continue
        try:
            _dt.datetime.strptime(value, pattern)
        except ValueError:
            continue
        matches.append(name)
    return tuple(matches)


def detect_formats(value: str) -> List[str]:
    """Names of every known format that parses *value* to a calendar date."""
    return list(_detected_formats(value))


def parse_date(value: str, format_name: str) -> Optional[_dt.date]:
    """Parse *value* with the named format, or ``None`` when it does not fit."""
    pattern = _FORMAT_BY_NAME.get(format_name)
    if pattern is None:
        return None
    for name, _, guard in _FORMATS:
        if name == format_name and not guard.match(value):
            return None
    try:
        return _dt.datetime.strptime(value, pattern).date()
    except ValueError:
        return None


class DateConversion(AttributeFunction):
    """Reformat dates from *source_format* to *target_format*; two parameters.

    Values that do not parse under the source format are passed through
    unchanged, mirroring the "otherwise identity" convention of the
    replacement families — real tables often mix dates with sentinel values
    such as ``99991231``.
    """

    meta_name = "date_conversion"

    __slots__ = ("_source_format", "_target_format")

    def __init__(self, source_format: str, target_format: str):
        if source_format not in _FORMAT_BY_NAME:
            raise ValueError(f"unknown date format: {source_format!r}")
        if target_format not in _FORMAT_BY_NAME:
            raise ValueError(f"unknown date format: {target_format!r}")
        if source_format == target_format:
            raise ValueError("date conversion must change the format")
        self._source_format = source_format
        self._target_format = target_format

    @property
    def source_format(self) -> str:
        return self._source_format

    @property
    def target_format(self) -> str:
        return self._target_format

    def apply(self, value: str) -> Optional[str]:
        parsed = parse_date(value, self._source_format)
        if parsed is None:
            return value
        return parsed.strftime(_FORMAT_BY_NAME[self._target_format])

    @property
    def description_length(self) -> int:
        return 2

    @property
    def parameters(self) -> Tuple[object, ...]:
        return (self._source_format, self._target_format)


class DateConversionMeta(MetaFunction):
    """Induces every (source format, target format) pair consistent with an example.

    As discussed in the paper, a single example can be ambiguous (``'Oct 10
    2019' ↦ '20191010'`` fits both ``yyyymmdd`` and a hypothetical
    ``yyyyddmm``); all consistent candidates are generated and the ranking
    stage later separates them.
    """

    name = "date_conversion"

    def induce(self, source_value: str, target_value: str) -> Iterable[AttributeFunction]:
        if source_value == target_value:
            return
        source_formats = _detected_formats(source_value)
        target_formats = _detected_formats(target_value)
        if not source_formats or not target_formats:
            return
        for source_format in source_formats:
            for target_format in target_formats:
                if source_format == target_format:
                    continue
                candidate = DateConversion(source_format, target_format)
                if candidate.covers(source_value, target_value):
                    yield candidate
