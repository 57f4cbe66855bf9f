"""Golden digests of per-pair candidate induction and application.

The value-level helpers (number parsing and formatting, the decimal
context, date-format detection) are shared by the columnar engine and the
``rowwise`` reference, so the engine-equivalence tests cannot see a change
in them: both engines would move together.  These digests pin their
observable behaviour instead.  For every meta function of the default
registry and every value pair of a fixed corpus, the induced candidates
(``repr`` and parameters) are hashed, and so is the result of applying each
induced candidate to every value of the pair's corpus group.

The corpus covers signed, decimal and zero-padded numbers, ``-0``, ``1.50``
and ``+5``; numbers of 30 or more digits, which cross the 28-digit default
decimal context; every date format plus invalid calendar dates; and affix,
mask, case and trim-run strings.

The literal digests were computed before the value-level caches existed.
If a digest changes, an induced candidate or an applied value changed;
that is a change to the answers of the search, not to its speed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

from repro.functions import AttributeFunction, default_registry

NUMBERS = (
    "0", "-0", "-0.0", "+0", "5", "+5", "-5", "1.5", "1.50", "007", "0.001",
    "-12.25", "3", "80", "100", "1000", "6540", "6.54", "80000", "2.5",
    "0.3333333333",
    "123456789012345678901234567890",
    "-98765432109876543210987654321098",
    "123456789012345678901234567.890",
    "123456789012345678901234567890000",
    "1234567890123456789012345678901234567890",
)

DATES = (
    "20190930", "2019-09-30", "2019/09/30", "30.09.2019", "30/09/2019",
    "09/30/2019", "Sep 30 2019", "30 Sep 2019", "10/10/2019", "01/02/2019",
    "Feb 1 2020", "1 Feb 2020",
    # invalid calendar dates
    "20190931", "2019-02-30", "31.04.2019", "13/13/2019", "Feb 30 2019",
    "30 Feb 2019", "00000000",
)

STRINGS = (
    "abc", "ABC", "Abc", "aBc", "xxabc", "abcxx", "**bc", "ab**", "***",
    "aaab", "baaa", "aaaa", "  abc", "abc  ", "pre-abc", "abc-suf",
    "pre_abc", "###abc", "abc###", "00123", "123", "12300", "x", "",
)

GROUPS = (NUMBERS, DATES, STRINGS)

INDUCTION_DIGEST = "d404b152f8fe3f33b4d27114d2489c7d936915326f05b7490c663b8c5b800786"
APPLY_DIGEST = "cea3f1b454f489ae38f90c37216e98acf977747a18ff10939360a58a09f53cd4"


def _induced() -> List[Tuple[str, str, str, List[AttributeFunction], Sequence[str]]]:
    rows = []
    for meta in default_registry():
        for group in GROUPS:
            for source in group:
                for target in group:
                    functions = list(meta.induce(source, target))
                    rows.append((meta.name, source, target, functions, group))
    return rows


def _digests() -> Tuple[str, str]:
    induction = hashlib.sha256()
    application = hashlib.sha256()
    applied: Dict[Tuple[AttributeFunction, int], None] = {}
    for name, source, target, functions, group in _induced():
        induction.update(repr((
            name, source, target, functions,
            [function.parameters for function in functions],
        )).encode("utf-8"))
        induction.update(b"\n")
        for function in functions:
            key = (function, id(group))
            if key in applied:
                continue
            applied[key] = None
            application.update(repr((
                function, [function.apply(value) for value in group],
            )).encode("utf-8"))
            application.update(b"\n")
    return induction.hexdigest(), application.hexdigest()


def test_corpus_exercises_every_meta_function():
    induced_by = {name for name, _, _, functions, _ in _induced() if functions}
    assert induced_by == {meta.name for meta in default_registry()}


def test_induction_digest_is_pinned():
    assert _digests()[0] == INDUCTION_DIGEST


def test_apply_digest_is_pinned():
    assert _digests()[1] == APPLY_DIGEST
