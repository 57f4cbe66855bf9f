"""Binary columnar buffers: packed dictionary codes and mmap-able snapshots.

Every frozen :class:`~repro.dataio.table.Column` already knows its dense
dictionary encoding (``codes`` + first-occurrence ``codebook``).  This module
packs that encoding into flat binary buffers:

* :class:`ValueBlob` — the distinct values of one column as a single UTF-8
  byte blob plus a ``uint64`` offset index (value *i* is
  ``data[offsets[i]:offsets[i + 1]]``), so a codebook of *k* values costs two
  allocations instead of *k* string objects until a value is actually read;
* :class:`ColumnBuffer` — one column as an ``int32`` code array over a value
  blob, sliceable as zero-copy ``memoryview``s;
* :class:`BufferColumn` — a lazy :class:`Column` backed by a buffer: length,
  membership, histograms, kind and the dictionary encoding are all served
  from the codes and the (small) codebook, and the actual cell strings are
  only materialised when positional access demands them — a column no
  consumer indexes is never decoded;
* a length-prefixed container format (:func:`pack_tables` /
  :func:`unpack_tables`) that serialises whole tables as raw buffer bytes;
  :func:`write_snapshot_pair` / :func:`open_snapshot_pair` persist it as an
  on-disk snapshot cache that :mod:`mmap` maps back in without copying.

Unpacking is *zero-copy*: the returned tables hold ``memoryview`` slices of
the caller's buffer (an mmap or a bytes object), and the
views keep the underlying buffer alive.  Corrupt input of any shape must
raise :exc:`BufferFormatError`, never an arbitrary exception — the fuzz
harness's ``buffer_roundtrip`` oracle enforces exactly that.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import sys
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .schema import Schema, SchemaError
from .table import Column, Table, TableError

#: Magic prefix of the packed container (and the on-disk snapshot cache).
MAGIC = b"AFBUF01\n"
#: Version tag carried in the container header.
FORMAT_VERSION = "affidavit.buffer-pack/v1"

#: Typecodes of the binary sections.  ``"i"``/``"Q"`` are 4/8 bytes on every
#: platform CPython supports; guarded at import so a mismatch fails loudly.
CODE_TYPECODE = "i"
OFFSET_TYPECODE = "Q"
_CODE_SIZE = array(CODE_TYPECODE).itemsize
_OFFSET_SIZE = array(OFFSET_TYPECODE).itemsize
if _CODE_SIZE != 4 or _OFFSET_SIZE != 8:  # pragma: no cover - exotic platform
    raise ImportError(
        f"unsupported array item sizes: i={_CODE_SIZE}, Q={_OFFSET_SIZE}"
    )


class BufferFormatError(TableError):
    """Raised when packed buffer bytes are malformed or self-inconsistent."""


def _cast_ints(view: memoryview, typecode: str, byteorder: str) -> Sequence[int]:
    """*view* as an integer sequence: a zero-copy cast when the producing
    host shares this host's byte order, a byte-swapped copy otherwise."""
    if byteorder == sys.byteorder:
        return view.cast(typecode)
    swapped = array(typecode)
    swapped.frombytes(bytes(view))
    swapped.byteswap()
    return swapped


class ValueBlob:
    """The distinct values of one column as an offset-indexed UTF-8 blob."""

    __slots__ = ("_offsets", "_data")

    def __init__(self, offsets: Sequence[int], data: Union[bytes, memoryview]):
        self._offsets = offsets
        self._data = data

    @classmethod
    def from_values(cls, values: Iterable[str]) -> "ValueBlob":
        offsets = array(OFFSET_TYPECODE, [0])
        chunks: List[bytes] = []
        position = 0
        for value in values:
            encoded = value.encode("utf-8")
            chunks.append(encoded)
            position += len(encoded)
            offsets.append(position)
        return cls(offsets, b"".join(chunks))

    def __len__(self) -> int:
        return len(self._offsets) - 1

    @property
    def offsets(self) -> Sequence[int]:
        return self._offsets

    @property
    def data(self) -> Union[bytes, memoryview]:
        return self._data

    def validate(self) -> None:
        """Structural soundness: offsets start at 0, never decrease, and end
        exactly at the data length.  Raises :exc:`BufferFormatError`."""
        offsets = self._offsets
        if len(offsets) == 0:
            raise BufferFormatError("value blob has an empty offset index")
        if offsets[0] != 0:
            raise BufferFormatError(
                f"value blob offsets start at {offsets[0]}, expected 0"
            )
        previous = 0
        for offset in offsets:
            if offset < previous:
                raise BufferFormatError("value blob offsets decrease")
            previous = offset
        if previous != len(self._data):
            raise BufferFormatError(
                f"value blob offsets end at {previous} but data holds "
                f"{len(self._data)} bytes"
            )

    def value(self, index: int) -> str:
        """Decode the value at *index* (bounds- and UTF-8-checked)."""
        if not 0 <= index < len(self):
            raise BufferFormatError(f"value index out of range: {index}")
        start, end = self._offsets[index], self._offsets[index + 1]
        try:
            return bytes(self._data[start:end]).decode("utf-8")
        except UnicodeDecodeError as error:
            raise BufferFormatError(
                f"value {index} is not valid UTF-8: {error}"
            ) from error

    def values(self) -> List[str]:
        """Every value, decoded, in blob order."""
        return [self.value(index) for index in range(len(self))]

    def __repr__(self) -> str:
        return f"ValueBlob({len(self)} values, {len(self._data)} bytes)"


class ColumnBuffer:
    """One column as an ``int32`` code array over a :class:`ValueBlob`.

    The buffer trusts nothing: :meth:`validate` (run lazily, once, before the
    first decoding access) checks the offset index and that every code names
    an existing value, so corrupt snapshot bytes surface as
    :exc:`BufferFormatError` instead of stray ``IndexError``\\ s.
    """

    __slots__ = ("codes", "blob", "_validated")

    def __init__(self, codes: Sequence[int], blob: ValueBlob, *,
                 validated: bool = False):
        self.codes = codes
        self.blob = blob
        self._validated = validated

    @classmethod
    def from_column(cls, column: Column) -> "ColumnBuffer":
        """Pack *column* via its cached dictionary encoding (zero re-scan when
        the column is already buffer-backed)."""
        if isinstance(column, BufferColumn):
            buffer = column.buffer
            if buffer is not None:
                return buffer
        codes, codebook = column.dictionary()
        return cls(
            array(CODE_TYPECODE, codes), ValueBlob.from_values(codebook),
            validated=True,
        )

    @property
    def n_rows(self) -> int:
        return len(self.codes)

    @property
    def n_values(self) -> int:
        return len(self.blob)

    def validate(self) -> None:
        if self._validated:
            return
        self.blob.validate()
        n_values = len(self.blob)
        # min/max drive the scan from C; the explicit loop only runs to name
        # the offending code once a violation is known to exist.
        if len(self.codes) and not 0 <= min(self.codes) <= max(self.codes) < n_values:
            for code in self.codes:
                if not 0 <= code < n_values:
                    raise BufferFormatError(
                        f"code {code} outside the codebook ({n_values} values)"
                    )
        self._validated = True

    def codebook(self) -> Dict[str, int]:
        """``{value -> code}`` in blob order (the dictionary-encoding shape).

        Raises :exc:`BufferFormatError` when two blob entries decode to the
        same string — a corrupt codebook would otherwise silently alias
        distinct codes."""
        self.validate()
        book: Dict[str, int] = {}
        for code in range(len(self.blob)):
            value = self.blob.value(code)
            if value in book:
                raise BufferFormatError(
                    f"codebook is not injective: {value!r} appears twice"
                )
            book[value] = code
        return book

    def contains(self, value: str) -> bool:
        """Membership test served from the codebook (no cell decoding).

        Compares the needle's UTF-8 bytes against raw blob slices — a length
        check against the offset index prunes almost every candidate without
        constructing a single Python string."""
        # A codebook query never touches the code array, so only the blob
        # needs validating — the code-range scan stays lazy until cells are
        # actually decoded.
        self.blob.validate()
        needle = value.encode("utf-8")
        data = self.blob.data
        # C-level substring search prunes the common negative case before the
        # precise scan; a hit still needs offset alignment confirmed below.
        raw = data if isinstance(data, bytes) else bytes(data)
        if needle and needle not in raw:
            return False
        width = len(needle)
        offsets = self.blob.offsets
        for code in range(len(self.blob)):
            start = offsets[code]
            if offsets[code + 1] - start == width and data[start:start + width] == needle:
                return True
        return False

    def value_histogram(self) -> Counter:
        """Value histogram from the code array: one decode per distinct
        value, keys in first-cell-occurrence order (matching ``Counter`` over
        the decoded cells)."""
        self.validate()
        code_counts: Dict[int, int] = {}
        get = code_counts.get
        for code in self.codes:
            code_counts[code] = get(code, 0) + 1
        return Counter({
            self.blob.value(code): count for code, count in code_counts.items()
        })

    def decode(self) -> List[str]:
        """Every cell as a string (the full materialisation)."""
        self.validate()
        values = self.blob.values()
        return [values[code] for code in self.codes]

    def sections(self) -> Tuple[bytes, bytes, bytes]:
        """``(codes, offsets, data)`` as raw native-order bytes."""
        codes = self.codes
        if isinstance(codes, memoryview):
            codes_bytes = bytes(codes)
        elif isinstance(codes, array):
            codes_bytes = codes.tobytes()
        else:
            codes_bytes = array(CODE_TYPECODE, codes).tobytes()
        offsets = self.blob.offsets
        if isinstance(offsets, memoryview):
            offsets_bytes = bytes(offsets)
        elif isinstance(offsets, array):
            offsets_bytes = offsets.tobytes()
        else:
            offsets_bytes = array(OFFSET_TYPECODE, offsets).tobytes()
        return codes_bytes, offsets_bytes, bytes(self.blob.data)

    def __repr__(self) -> str:
        return f"ColumnBuffer({self.n_rows} codes over {self.n_values} values)"


class BufferColumn(Column):
    """A :class:`Column` whose cells live in a :class:`ColumnBuffer`.

    Statistics queries (length, membership, value histogram, dictionary
    encoding, inferred kind) are answered from the codes and the codebook
    without decoding a single cell; positional access (indexing, iteration,
    slicing) materialises the string cells once, lazily.  ``list`` is a
    C-level container, so every entry point that would read the raw storage
    directly — including equality, which the table layer uses — is overridden
    to materialise first.  Mutation (legal only on unfrozen tables) detaches
    the buffer: a mutated column behaves exactly like a plain one.
    """

    __slots__ = ("_buffer", "_loaded")

    def __init__(self, buffer: ColumnBuffer):
        self._buffer: Optional[ColumnBuffer] = buffer
        self._loaded = False
        super().__init__(())

    @property
    def buffer(self) -> Optional[ColumnBuffer]:
        """The backing buffer (``None`` once the column was mutated)."""
        return self._buffer

    @property
    def materialised(self) -> bool:
        """True once the string cells were decoded into list storage."""
        return self._loaded

    def _materialise(self) -> None:
        if not self._loaded:
            buffer = self._buffer
            self._loaded = True
            # Bypass Column.extend: decoding does not invalidate the caches
            # already served from the buffer — it yields the same cells.
            list.extend(self, buffer.decode())

    def _detach(self) -> None:
        """Materialise and drop the buffer before a mutation."""
        self._materialise()
        self._buffer = None

    # -- buffer-served queries (no cell decoding) ------------------------ #
    def __len__(self) -> int:
        buffer = self._buffer
        if buffer is not None and not self._loaded:
            return buffer.n_rows
        return list.__len__(self)

    def __contains__(self, item: object) -> bool:
        buffer = self._buffer
        if buffer is None or self._loaded:
            return list.__contains__(self, item)
        return isinstance(item, str) and buffer.contains(item)

    def value_counts(self) -> Counter:
        if self._counts is None:
            buffer = self._buffer
            if buffer is None:
                return super().value_counts()
            self._counts = buffer.value_histogram()
        return self._counts

    def dictionary(self) -> Tuple[Sequence[int], Dict[str, int]]:
        if self._dictionary is None:
            buffer = self._buffer
            if buffer is None:
                return super().dictionary()
            # The stored codes *are* the first-occurrence dense encoding —
            # pack_tables built them from Column.dictionary() — so the code
            # array is shared outright instead of re-derived cell by cell.
            self._dictionary = (buffer.codes, buffer.codebook())
        return self._dictionary

    # -- positional access materialises ---------------------------------- #
    def __getitem__(self, index):
        self._materialise()
        return list.__getitem__(self, index)

    def __iter__(self):
        self._materialise()
        return list.__iter__(self)

    def __reversed__(self):
        self._materialise()
        return list.__reversed__(self)

    def __eq__(self, other: object) -> bool:
        # list equality reads both operands' raw storage at C level, so both
        # sides must be materialised.  (Column is a plain list subclass, so
        # Python tries BufferColumn's reflected __eq__ first when a plain
        # column sits on the left.)
        if isinstance(other, BufferColumn):
            other._materialise()
        if isinstance(other, list):
            self._materialise()
            return list.__eq__(self, other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # lists are unhashable; keep that explicit under __eq__

    def __reduce__(self):
        # Pickling flattens to a plain Column: buffers may wrap memoryviews
        # (unpicklable) and the receiver rebuilds its own encodings anyway.
        self._materialise()
        return (Column, (list(self),))

    # -- mutation detaches the buffer ------------------------------------ #
    def append(self, cell: str) -> None:
        self._detach()
        super().append(cell)

    def extend(self, cells) -> None:
        self._detach()
        super().extend(cells)

    def insert(self, index: int, cell: str) -> None:
        self._detach()
        super().insert(index, cell)

    def __setitem__(self, index, cell) -> None:
        self._detach()
        super().__setitem__(index, cell)

    def __delitem__(self, index) -> None:
        self._detach()
        super().__delitem__(index)

    def __iadd__(self, cells):
        self._detach()
        return super().__iadd__(cells)

    def __imul__(self, factor):
        self._detach()
        return super().__imul__(factor)

    def clear(self) -> None:
        self._detach()
        super().clear()

    def pop(self, index: int = -1) -> str:
        self._detach()
        return super().pop(index)

    def remove(self, cell: str) -> None:
        self._detach()
        super().remove(cell)


def buffer_table(table: Table) -> Table:
    """*table* rebuilt on buffer-backed columns (frozen, same contents).

    The in-memory counterpart of a snapshot round trip; mostly useful to
    tests and benchmarks that want buffer-backed instances without a file.
    """
    clone = Table(table.schema)
    clone._columns = [
        BufferColumn(ColumnBuffer.from_column(table.column_view(attribute)))
        for attribute in table.schema
    ]
    clone._n_rows = table.n_rows
    clone._frozen = True
    return clone


# --------------------------------------------------------------------------- #
# the packed container
# --------------------------------------------------------------------------- #
def pack_tables(tables: Sequence[Table], *, extra: bytes = b"",
                name: str = "") -> bytes:
    """Serialise *tables* into one self-describing binary container.

    Layout: ``MAGIC``, a little-endian ``uint64`` header length, a JSON
    header describing every section, then the raw payload (code arrays,
    offset indexes, value blobs, the opaque *extra* blob) back to back.
    Section offsets are relative to the payload start, so the header never
    depends on its own size.
    """
    payload_chunks: List[bytes] = []
    position = 0

    def add(chunk: bytes) -> List[int]:
        nonlocal position
        payload_chunks.append(chunk)
        start = position
        position += len(chunk)
        return [start, len(chunk)]

    described = []
    for table in tables:
        columns = []
        for attribute in table.schema:
            buffer = ColumnBuffer.from_column(table.column_view(attribute))
            codes_bytes, offsets_bytes, data_bytes = buffer.sections()
            columns.append({
                "codes": add(codes_bytes),
                "offsets": add(offsets_bytes),
                "data": add(data_bytes),
                "n_values": buffer.n_values,
            })
        described.append({
            "schema": list(table.schema),
            "n_rows": table.n_rows,
            "columns": columns,
        })
    header = {
        "format": FORMAT_VERSION,
        "byteorder": sys.byteorder,
        "name": name,
        "extra": add(extra),
        "tables": described,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([
        MAGIC,
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
        *payload_chunks,
    ])


def unpack_tables(data: Union[bytes, bytearray, memoryview, mmap.mmap],
                  ) -> Tuple[List[Table], bytes, str]:
    """Rebuild ``(tables, extra, name)`` from :func:`pack_tables` bytes.

    Zero-copy: the returned tables hold :class:`BufferColumn`\\ s over
    ``memoryview`` slices of *data* (which the views keep alive), and cells
    are only decoded when a consumer actually reads them.  Any structural
    problem raises :exc:`BufferFormatError`.
    """
    view = memoryview(data)
    if len(view) < len(MAGIC) + 8:
        raise BufferFormatError(f"buffer too short: {len(view)} bytes")
    if bytes(view[:len(MAGIC)]) != MAGIC:
        raise BufferFormatError("bad magic: not a packed buffer container")
    header_length = int.from_bytes(view[len(MAGIC):len(MAGIC) + 8], "little")
    payload_start = len(MAGIC) + 8 + header_length
    if header_length > len(view) - len(MAGIC) - 8:
        raise BufferFormatError(
            f"header length {header_length} exceeds the buffer"
        )
    try:
        header = json.loads(bytes(view[len(MAGIC) + 8:payload_start]))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BufferFormatError(f"malformed header: {error}") from error
    payload = view[payload_start:]

    def section(entry: object, item_size: int = 1) -> memoryview:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not all(isinstance(v, int) for v in entry)):
            raise BufferFormatError(f"malformed section descriptor: {entry!r}")
        start, length = entry
        if start < 0 or length < 0 or start + length > len(payload):
            raise BufferFormatError(
                f"section [{start}, {length}] outside the "
                f"{len(payload)}-byte payload"
            )
        if length % item_size:
            raise BufferFormatError(
                f"section length {length} is not a multiple of {item_size}"
            )
        return payload[start:start + length]

    try:
        if header.get("format") != FORMAT_VERSION:
            raise BufferFormatError(
                f"unsupported container format: {header.get('format')!r}"
            )
        byteorder = header.get("byteorder")
        if byteorder not in ("little", "big"):
            raise BufferFormatError(f"unknown byte order: {byteorder!r}")
        name = header.get("name")
        if not isinstance(name, str):
            raise BufferFormatError(f"malformed snapshot name: {name!r}")
        extra = bytes(section(header.get("extra")))
        tables: List[Table] = []
        for described in header.get("tables", ()):
            attributes = described.get("schema")
            if (not isinstance(attributes, list)
                    or not all(isinstance(a, str) for a in attributes)):
                raise BufferFormatError(f"malformed schema: {attributes!r}")
            schema = Schema(attributes)
            n_rows = described.get("n_rows")
            if not isinstance(n_rows, int) or n_rows < 0:
                raise BufferFormatError(f"malformed row count: {n_rows!r}")
            columns_meta = described.get("columns")
            if (not isinstance(columns_meta, list)
                    or len(columns_meta) != len(attributes)):
                raise BufferFormatError(
                    f"{len(attributes)} attributes but "
                    f"{len(columns_meta) if isinstance(columns_meta, list) else 0}"
                    " column descriptors"
                )
            columns: List[Column] = []
            for meta in columns_meta:
                n_values = meta.get("n_values")
                if not isinstance(n_values, int) or n_values < 0:
                    raise BufferFormatError(
                        f"malformed codebook size: {n_values!r}"
                    )
                codes = _cast_ints(
                    section(meta.get("codes"), _CODE_SIZE),
                    CODE_TYPECODE, byteorder,
                )
                if len(codes) != n_rows:
                    raise BufferFormatError(
                        f"column holds {len(codes)} codes for {n_rows} rows"
                    )
                offsets = _cast_ints(
                    section(meta.get("offsets"), _OFFSET_SIZE),
                    OFFSET_TYPECODE, byteorder,
                )
                if len(offsets) != n_values + 1:
                    raise BufferFormatError(
                        f"offset index holds {len(offsets)} entries for "
                        f"{n_values} values"
                    )
                blob = ValueBlob(offsets, section(meta.get("data")))
                columns.append(BufferColumn(ColumnBuffer(codes, blob)))
            table = Table(schema)
            table._columns = columns
            table._n_rows = n_rows
            table._frozen = True
            tables.append(table)
    except (SchemaError, AttributeError, TypeError, ValueError) as error:
        if isinstance(error, BufferFormatError):
            raise
        raise BufferFormatError(f"malformed container header: {error}") from error
    return tables, extra, name


# --------------------------------------------------------------------------- #
# the on-disk snapshot cache
# --------------------------------------------------------------------------- #
def write_snapshot_pair(source: Table, target: Table,
                        path: Union[str, Path], *,
                        name: str = "instance") -> Path:
    """Persist two snapshots as one mmap-able binary cache file.

    Written atomically (temp file + rename), so a concurrent
    :func:`open_snapshot_pair` never sees a half-written cache.
    """
    path = Path(path)
    blob = pack_tables([source, target], name=name)
    temporary = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary.write_bytes(blob)
    temporary.replace(path)
    return path


def open_snapshot_pair(path: Union[str, Path]) -> Tuple[Table, Table, str]:
    """Map a :func:`write_snapshot_pair` file back in, without copying.

    The file is mmap-ed read-only; the returned tables' buffer columns hold
    views into the mapping (which they keep alive), and a column's cells are
    only decoded — and hence its file pages only fully read — when something
    actually indexes it.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            if path.stat().st_size == 0:
                raise BufferFormatError(f"snapshot cache {path} is empty")
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as error:
        raise BufferFormatError(f"cannot map snapshot cache: {error}") from error
    tables, _extra, name = unpack_tables(mapped)
    if len(tables) != 2:
        raise BufferFormatError(
            f"snapshot cache holds {len(tables)} tables, expected 2"
        )
    source, target = tables
    if source.schema != target.schema:
        raise BufferFormatError(
            "snapshot cache tables do not share a schema: "
            f"{list(source.schema)} vs {list(target.schema)}"
        )
    return source, target, name


def content_digest(*chunks: bytes) -> str:
    """A stable SHA-256 over length-prefixed byte chunks — the key of the
    content-addressed snapshot cache (two CSV bodies hash the same iff both
    contents match, with no concatenation ambiguity)."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


__all__ = [
    "BufferColumn",
    "BufferFormatError",
    "ColumnBuffer",
    "FORMAT_VERSION",
    "MAGIC",
    "ValueBlob",
    "buffer_table",
    "content_digest",
    "open_snapshot_pair",
    "pack_tables",
    "unpack_tables",
    "write_snapshot_pair",
]
