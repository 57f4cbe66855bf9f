"""Configuration of the Affidavit search.

The names follow the paper's parameters:

===========  ==================================================================
``alpha``    α — balance between alignment reward and function simplicity
             in the MDL cost (Definition 3.10).
``beta``     β — branching factor: number of attributes extended per step and
             number of function candidates kept per attribute (Section 4.3).
``queue_width``  ϱ — width bound of the level-limited priority queue
             (Section 4.6).
``theta``    θ — estimated fraction of target records that exhibit the effect
             of the sought function (Section 4.4.2).
``confidence``   ρ — confidence level of the sampling guarantees
             (Sections 4.4.2 and 4.4.3).
``start_strategy``  which set of start states to use: ``"empty"`` (H∅),
             ``"identity"`` (Hid) or ``"overlap"`` (Hs, Section 4.2).
``max_block_size``  cap on the number of record pairs one shared value may
             generate during overlap matching (Section 4.2).
===========  ==================================================================

The two configurations evaluated in the paper (Section 5.2) are available as
:func:`overlap_configuration` (Hs, β=1, ϱ=1) and :func:`identity_configuration`
(Hid, β=2, ϱ=5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

START_EMPTY = "empty"
START_IDENTITY = "identity"
START_OVERLAP = "overlap"

_VALID_START_STRATEGIES = (START_EMPTY, START_IDENTITY, START_OVERLAP)

#: Integer parameters that must be ``>= 1``; ``bool`` is rejected although it
#: subclasses ``int``.  ``max_expansions`` may also be ``None``.
_POSITIVE_INT_FIELDS = (
    "beta", "queue_width", "max_block_size", "min_generation_successes",
    "max_expansions",
)


@dataclass(frozen=True)
class AffidavitConfig:
    """All tunable parameters of the search (immutable, plain data).

    Run observers — progress reporting and cooperative cancellation — are
    arguments of the run (:class:`~repro.core.Affidavit`), not fields here.
    """

    alpha: float = 0.5
    beta: int = 2
    queue_width: int = 5
    theta: float = 0.1
    confidence: float = 0.95
    start_strategy: str = START_IDENTITY
    max_block_size: int = 100_000
    #: Minimum number of induction examples that must generate a candidate for
    #: it to survive significance filtering (the "5" in p(X ≥ 5) ≥ ρ).
    min_generation_successes: int = 5
    #: Safety valve: maximum number of state expansions before the search
    #: returns the best explanation found so far.  ``None`` disables the cap.
    max_expansions: Optional[int] = 10_000
    #: Seed of the search-owned random generator; fixed for reproducibility.
    seed: int = 0
    #: Run the columnar evaluation engine with cross-state memoization of
    #: per-attribute function applications.  ``False`` selects the row-wise
    #: fallback engine — identical results, no memoization — used as the
    #: benchmark baseline and by the equivalence tests.
    columnar_cache: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ValueError` unless every search parameter is in its
        legal range.  Runs automatically on construction; exposed separately
        so the request layer (:mod:`repro.api`) can re-check a configuration
        assembled from wire-format overrides."""
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.start_strategy not in _VALID_START_STRATEGIES:
            raise ValueError(
                f"start_strategy must be one of {_VALID_START_STRATEGIES}, "
                f"got {self.start_strategy!r}"
            )
        for name in _POSITIVE_INT_FIELDS:
            value = getattr(self, name)
            if name == "max_expansions" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                suffix = " or None" if name == "max_expansions" else ""
                raise ValueError(f"{name} must be >= 1{suffix}, got {value}")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    def with_overrides(self, **changes) -> "AffidavitConfig":
        """A copy with selected fields replaced."""
        return replace(self, **changes)


def engine_name(config: AffidavitConfig) -> str:
    """The evaluation engine a configuration selects: ``"rowwise"`` when the
    columnar cache is off, ``"columnar"`` otherwise."""
    return "columnar" if config.columnar_cache else "rowwise"


def identity_configuration(**overrides) -> AffidavitConfig:
    """The Hid configuration of Section 5.2: β=2, ϱ=5, identity start states."""
    config = AffidavitConfig(
        start_strategy=START_IDENTITY,
        beta=2,
        queue_width=5,
        alpha=0.5,
        theta=0.1,
        confidence=0.95,
    )
    return config.with_overrides(**overrides) if overrides else config


def overlap_configuration(**overrides) -> AffidavitConfig:
    """The Hs configuration of Section 5.2: β=1, ϱ=1, overlap start state."""
    config = AffidavitConfig(
        start_strategy=START_OVERLAP,
        beta=1,
        queue_width=1,
        alpha=0.5,
        theta=0.1,
        confidence=0.95,
        max_block_size=100_000,
    )
    return config.with_overrides(**overrides) if overrides else config
