"""Tabular data substrate: schemas, tables, CSV I/O, binary buffers."""

from .schema import Schema, SchemaError
from .table import Column, ColumnStats, Row, Table, TableError
from .csv_io import read_csv, read_csv_text, read_snapshot_pair, to_csv_text, write_csv
from .buffers import (
    BufferFormatError,
    content_digest,
    open_snapshot_pair,
    pack_tables,
    unpack_tables,
    write_snapshot_pair,
)
from . import values

__all__ = [
    "Schema",
    "SchemaError",
    "Table",
    "TableError",
    "Column",
    "ColumnStats",
    "Row",
    "BufferFormatError",
    "content_digest",
    "open_snapshot_pair",
    "pack_tables",
    "unpack_tables",
    "write_snapshot_pair",
    "read_csv",
    "read_csv_text",
    "read_snapshot_pair",
    "write_csv",
    "to_csv_text",
    "values",
]
