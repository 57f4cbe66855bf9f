"""Problem instances (Definition 3.1): two snapshots plus a function pool.

An instance persists its two snapshots as one ``AFBUF01`` binary file
(:meth:`ProblemInstance.save` / :meth:`ProblemInstance.load`); the function
pool is code, not data, and is never serialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from ..dataio import Schema, Table, TableError
from ..dataio.buffers import open_snapshot_pair, write_snapshot_pair
from ..functions import FunctionRegistry, default_registry


@dataclass(frozen=True)
class ProblemInstance:
    """A fixed problem instance ``I = (S, T, A, F)``.

    Parameters
    ----------
    source:
        Snapshot ``S`` — the older state of the table.
    target:
        Snapshot ``T`` — the newer state of the table.

        Both snapshots are **frozen in place** on construction (see
        :meth:`repro.dataio.Table.freeze`): the search memoizes column
        transforms and blockings, so the tables must not change afterwards.
        Callers that want to keep mutating a table should pass
        ``table.copy()``.
    registry:
        The meta functions whose instantiations form the candidate pool
        :math:`\\mathcal{F}`.  Defaults to :func:`repro.functions.default_registry`.
    name:
        Optional human-readable label used in reports and benchmarks.
    """

    source: Table
    target: Table
    registry: FunctionRegistry = field(default_factory=default_registry)
    name: str = "instance"

    def __post_init__(self) -> None:
        if self.source.schema != self.target.schema:
            raise TableError(
                "source and target snapshots must share a schema: "
                f"{list(self.source.schema)} vs {list(self.target.schema)}"
            )
        # NOT_APPLICABLE is an *in-band* sentinel: transformed columns use it
        # for "function not applicable" and the dictionary layer reserves
        # code 0 for it.  A raw cell equal to the sentinel would collide with
        # that encoding and make the string and encoded engines diverge
        # (found by the metamorphic fuzzer), so such snapshots are rejected
        # up front instead of silently mis-explained.
        from .colcache import NOT_APPLICABLE

        for role, table in (("source", self.source), ("target", self.target)):
            for attribute in table.schema:
                if NOT_APPLICABLE in table.column_view(attribute):
                    raise TableError(
                        f"{role} snapshot column {attribute!r} contains the "
                        "reserved NOT_APPLICABLE sentinel value; snapshots "
                        "must not use in-band engine sentinels"
                    )
        # The search assumes the snapshots never change (cached blockings,
        # memoized column transforms, zero-copy views); freezing makes that
        # assumption explicit and lets projections share column storage.
        self.source.freeze()
        self.target.freeze()

    @property
    def schema(self) -> Schema:
        """The shared attribute tuple ``A``."""
        return self.source.schema

    @property
    def attributes(self) -> Sequence[str]:
        return self.schema.attributes

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    @property
    def n_source_records(self) -> int:
        return self.source.n_rows

    @property
    def n_target_records(self) -> int:
        return self.target.n_rows

    @property
    def delta(self) -> int:
        """Δ = |S| − |T| (Corollary 4.5)."""
        return self.source.n_rows - self.target.n_rows

    def describe(self) -> str:
        """One-line summary used in logs and example scripts."""
        return (
            f"{self.name}: |S|={self.n_source_records}, |T|={self.n_target_records}, "
            f"|A|={self.n_attributes}, functions={self.registry.names}"
        )

    def restricted_to(self, attributes: Sequence[str],
                      name: Optional[str] = None) -> "ProblemInstance":
        """A new instance projected to a subset of attributes."""
        return ProblemInstance(
            source=self.source.project(attributes),
            target=self.target.project(attributes),
            registry=self.registry,
            name=name or f"{self.name}[{','.join(attributes)}]",
        )

    def with_registry(self, registry: FunctionRegistry) -> "ProblemInstance":
        """A new instance using a different meta-function pool."""
        return ProblemInstance(
            source=self.source,
            target=self.target,
            registry=registry,
            name=self.name,
        )

    # ------------------------------------------------------------------ #
    # binary snapshot cache
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Persist both snapshots as one ``AFBUF01`` binary cache file.

        Only the tables and the name are stored — the function pool is code,
        not data, so :meth:`load` takes a registry (defaulting to
        :func:`~repro.functions.default_registry`) instead of deserialising
        one from disk.
        """
        return write_snapshot_pair(self.source, self.target, path, name=self.name)

    @classmethod
    def load(cls, path: Union[str, Path], *,
             registry: Optional[FunctionRegistry] = None,
             name: Optional[str] = None) -> "ProblemInstance":
        """Rebuild an instance from a :meth:`save` file.

        Every column is decoded once, here, into a plain frozen column.
        Raises :class:`~repro.dataio.BufferFormatError` on corrupt caches.
        """
        source, target, stored_name = open_snapshot_pair(path)
        return cls(
            source=source,
            target=target,
            registry=registry if registry is not None else default_registry(),
            name=name if name is not None else (stored_name or "instance"),
        )
