"""Binary columnar snapshots: the ``AFBUF01`` container and the snapshot cache.

Every frozen :class:`~repro.dataio.table.Column` already knows its dense
dictionary encoding (``codes`` + first-occurrence ``codebook``).  This module
packs that encoding into one flat, self-describing container: per column an
``int32`` code array, a ``uint64`` offset index and a UTF-8 value blob
(value *i* is ``data[offsets[i]:offsets[i + 1]]``).
:func:`pack_tables` / :func:`unpack_tables` convert between tables and
container bytes; :func:`write_snapshot_pair` / :func:`open_snapshot_pair`
persist a snapshot pair as an on-disk snapshot cache file.

Unpacking decodes every column once, into plain frozen :class:`Column`\\ s
that share nothing with the input bytes: the search reads every attribute of
both snapshots, so nothing would be saved by decoding later.  What a cache
hit saves is CSV parsing.  Container bytes come from outside the
program, so each one is checked, and corrupt input of any shape raises
:exc:`BufferFormatError`, never an arbitrary exception — the fuzz harness's
``buffer_roundtrip`` oracle enforces exactly that.
"""

from __future__ import annotations

import hashlib
import json
import operator
import sys
from array import array
from collections import Counter
from pathlib import Path
from typing import List, Sequence, Tuple, Union

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


def _column_sections(column: Column) -> Tuple[bytes, bytes, bytes, int]:
    """``(codes, offsets, data)`` section bytes of one column, plus its
    codebook size, from the column's cached dictionary encoding."""
    codes, codebook = column.dictionary()
    offsets = array(OFFSET_TYPECODE, [0])
    chunks: List[bytes] = []
    position = 0
    for value in codebook:
        encoded = value.encode("utf-8")
        chunks.append(encoded)
        position += len(encoded)
        offsets.append(position)
    return (array(CODE_TYPECODE, codes).tobytes(), offsets.tobytes(),
            b"".join(chunks), len(codebook))


def _decode_column(codes: Sequence[int], offsets: Sequence[int],
                   data: memoryview) -> Column:
    """One column decoded from its sections (lengths already checked).

    Checks that the offsets start at 0, never decrease and end at the data
    length, that every value is UTF-8, that the codebook is injective and
    that every code names a value.
    """
    if offsets[0] != 0:
        raise BufferFormatError(
            f"value blob offsets start at {offsets[0]}, expected 0"
        )
    if not all(map(operator.le, offsets, offsets[1:])):
        raise BufferFormatError("value blob offsets decrease")
    if offsets[-1] != len(data):
        raise BufferFormatError(
            f"value blob offsets end at {offsets[-1]} but data holds "
            f"{len(data)} bytes"
        )
    n_values = len(offsets) - 1
    try:
        values = [str(data[offsets[i]:offsets[i + 1]], "utf-8")
                  for i in range(n_values)]
    except UnicodeDecodeError as error:
        raise BufferFormatError(f"value blob is not valid UTF-8: {error}") from error
    if len(set(values)) != n_values:
        duplicate = next(value for value, count in Counter(values).items()
                         if count > 1)
        raise BufferFormatError(
            f"codebook is not injective: {duplicate!r} appears twice"
        )
    # min/max drive the range scan from C; a negative code would otherwise
    # index the value list from its end.
    if len(codes) and not 0 <= min(codes) <= max(codes) < n_values:
        bad = next(code for code in codes if not 0 <= code < n_values)
        raise BufferFormatError(
            f"code {bad} outside the codebook ({n_values} values)"
        )
    return Column(map(values.__getitem__, codes))


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
    depends on its own size.  Packing is deterministic: the snapshot cache
    is content-addressed on these bytes.
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
            codes_bytes, offsets_bytes, data_bytes, n_values = _column_sections(
                table.column_view(attribute))
            columns.append({
                "codes": add(codes_bytes),
                "offsets": add(offsets_bytes),
                "data": add(data_bytes),
                "n_values": n_values,
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


def unpack_tables(data: Union[bytes, bytearray, memoryview],
                  ) -> Tuple[List[Table], bytes, str]:
    """Rebuild ``(tables, extra, name)`` from :func:`pack_tables` bytes.

    Every column is decoded and checked here, into a plain :class:`Column`
    of a frozen table that keeps no reference to *data*.  Any structural
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
                columns.append(
                    _decode_column(codes, offsets, section(meta.get("data")))
                )
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
    """Persist two snapshots as one ``AFBUF01`` cache file.

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
    """Load a :func:`write_snapshot_pair` file: ``(source, target, name)``.

    The file is read and decoded in full; an unreadable, corrupt or
    non-pair file raises :exc:`BufferFormatError`.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as error:
        raise BufferFormatError(f"cannot read snapshot cache: {error}") from error
    tables, _extra, name = unpack_tables(data)
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
    "BufferFormatError",
    "FORMAT_VERSION",
    "MAGIC",
    "content_digest",
    "open_snapshot_pair",
    "pack_tables",
    "unpack_tables",
    "write_snapshot_pair",
]
