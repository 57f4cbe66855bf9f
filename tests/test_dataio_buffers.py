"""Unit tests for repro.dataio.buffers: the binary columnar store."""

import json
import sys
from array import array

import pytest

from repro.api import ExplainRequest, Session
from repro.core import ProblemInstance
from repro.dataio import (
    BufferFormatError,
    Column,
    Schema,
    Table,
    TableError,
    content_digest,
    open_snapshot_pair,
    pack_tables,
    read_csv_text,
    unpack_tables,
    write_snapshot_pair,
)
from repro.dataio.buffers import FORMAT_VERSION, MAGIC


@pytest.fixture
def schema():
    return Schema(["id", "name", "value"])


@pytest.fixture
def table(schema):
    return Table(schema, [
        ("1", "alpha", "10"),
        ("2", "beta", "20"),
        ("3", "alpha", "30"),
        ("4", "alpha", "10"),
    ])


@pytest.fixture
def pair(schema):
    source = Table(schema, [("1", "a", "10"), ("2", "b", "20"), ("3", "a", "30")])
    target = Table(schema, [("1", "a", "1.0"), ("2", "b", "2.0")])
    return source, target


def round_trip(table: Table) -> Table:
    """*table* after ``unpack_tables(pack_tables(...))``."""
    (unpacked,), _extra, _name = unpack_tables(pack_tables([table]))
    return unpacked


def unpacked_column(cells) -> Column:
    return round_trip(Table(Schema(["A"]), [[cell] for cell in cells])).column_view("A")


def container(codes, offsets, data: bytes, *, n_values=None,
              byteorder=sys.byteorder) -> bytes:
    """A one-table, one-column container with hand-written sections, laid
    out like :func:`pack_tables` output (so corrupt sections can be built)."""
    arrays = [array("i", codes), array("Q", offsets)]
    if byteorder != sys.byteorder:
        for integers in arrays:
            integers.byteswap()
    sections = [arrays[0].tobytes(), arrays[1].tobytes(), data]
    starts = [0, len(sections[0]), len(sections[0]) + len(sections[1])]
    column = {
        name: [start, len(section)]
        for name, start, section in zip(("codes", "offsets", "data"), starts, sections)
    }
    column["n_values"] = len(offsets) - 1 if n_values is None else n_values
    header = json.dumps({
        "format": FORMAT_VERSION,
        "byteorder": byteorder,
        "name": "",
        "extra": [sum(map(len, sections)), 0],
        "tables": [{"schema": ["A"], "n_rows": len(codes), "columns": [column]}],
    }).encode("utf-8")
    return MAGIC + len(header).to_bytes(8, "little") + header + b"".join(sections)


def decoded(blob: bytes) -> list:
    (unpacked,), _extra, _name = unpack_tables(blob)
    return list(unpacked.column_view("A"))


class TestValueBlob:
    def test_round_trip(self):
        assert list(unpacked_column(["alpha", "", "βγ", "b"])) == \
            ["alpha", "", "βγ", "b"]

    def test_hand_written_sections_decode(self):
        assert decoded(container([0, 2, 1], [0, 5, 5, 9], b"alpha\xce\xb2\xce\xb3")) \
            == ["alpha", "βγ", ""]

    def test_foreign_byte_order_is_swapped(self):
        foreign = "big" if sys.byteorder == "little" else "little"
        assert decoded(container([0, 1, 0], [0, 1, 3], b"abc", byteorder=foreign)) \
            == ["a", "bc", "a"]

    def test_empty(self):
        assert decoded(container([], [0], b"")) == []
        assert list(unpacked_column([])) == []

    def test_out_of_range_index(self):
        with pytest.raises(BufferFormatError):
            unpack_tables(container([1], [0, 1], b"a"))
        with pytest.raises(BufferFormatError):
            unpack_tables(container([-1], [0, 1], b"a"))

    def test_validate_rejects_decreasing_offsets(self):
        with pytest.raises(BufferFormatError):
            unpack_tables(container([0], [0, 2, 1], b"ab"))

    def test_validate_rejects_bad_first_offset(self):
        with pytest.raises(BufferFormatError):
            unpack_tables(container([0], [1, 2], b"ab"))

    def test_validate_rejects_bad_terminal_offset(self):
        with pytest.raises(BufferFormatError):
            unpack_tables(container([0], [0, 1], b"abc"))

    def test_validate_rejects_empty_offsets(self):
        with pytest.raises(BufferFormatError):
            unpack_tables(container([], [], b"", n_values=0))

    def test_invalid_utf8_is_a_format_error(self):
        with pytest.raises(BufferFormatError):
            unpack_tables(container([0], [0, 2], b"\xff\xfe"))


class TestColumnCodes:
    def test_round_trip_keeps_the_encoding(self):
        column = unpacked_column(["x", "y", "x", "z"])
        assert list(column) == ["x", "y", "x", "z"]
        codes, codebook = column.dictionary()
        assert codes == [0, 1, 0, 2]
        assert codebook == {"x": 0, "y": 1, "z": 2}

    def test_out_of_range_code_rejected(self):
        with pytest.raises(BufferFormatError):
            unpack_tables(container([0, 5], [0, 4], b"only"))

    def test_negative_code_rejected(self):
        with pytest.raises(BufferFormatError):
            unpack_tables(container([-1], [0, 4], b"only"))

    def test_non_injective_codebook_rejected(self):
        with pytest.raises(BufferFormatError):
            unpack_tables(container([0, 1], [0, 3, 6], b"dupdup"))

    def test_codes_out_of_first_occurrence_order_are_re_encoded(self):
        # Not what pack_tables writes: the cells decode, and the column's
        # dictionary is still its first-occurrence encoding.
        (unpacked,), _extra, _name = unpack_tables(container([1, 0, 1], [0, 1, 2], b"ab"))
        column = unpacked.column_view("A")
        assert list(column) == ["b", "a", "b"]
        assert column.dictionary() == ([0, 1, 0], {"b": 0, "a": 1})

    def test_unused_codebook_values_are_not_in_the_dictionary(self):
        (unpacked,), _extra, _name = unpack_tables(container([0, 0], [0, 1, 2], b"ab"))
        assert unpacked.column_view("A").dictionary() == ([0, 0], {"a": 0})


class TestUnpackedColumn:
    def test_equality_both_directions(self):
        plain = Column(["a", "b", "a", "c"])
        assert unpacked_column(["a", "b", "a", "c"]) == plain
        assert plain == unpacked_column(["a", "b", "a", "c"])
        assert unpacked_column(["a", "b", "a", "c"]) == ["a", "b", "a", "c"]
        assert unpacked_column(["a", "b", "a", "c"]) != ["a", "b"]

    def test_stats_agree_with_plain_column(self):
        cells = ["10", "20", "10", "x", ""]
        unpacked, plain = unpacked_column(cells), Column(cells)
        assert unpacked.kind == plain.kind
        assert unpacked.value_counts() == plain.value_counts()
        assert unpacked.distinct_count() == plain.distinct_count()
        assert unpacked.missing_count() == plain.missing_count()
        assert unpacked.numeric_count() == plain.numeric_count()


#: The table on which list methods of lazily decoded columns went wrong.
TRAP_CSV = "a,b\nx,1\ny,2\nx,3\n"


def _unpacked(tmp_path, csv_table):
    return round_trip(csv_table)


def _opened(tmp_path, csv_table):
    path = write_snapshot_pair(csv_table, csv_table, tmp_path / "pair.afbuf")
    return open_snapshot_pair(path)[0]


def _snapshot_cache_hit(tmp_path, csv_table):
    session = Session().with_snapshot_cache(tmp_path / "cache")
    request = ExplainRequest(source_csv=TRAP_CSV, target_csv=TRAP_CSV)
    session.prepare(request)                        # miss: writes the entry
    assert list((tmp_path / "cache").glob("*.afbuf"))
    return session.prepare(request).instance.source  # hit


class TestLoadedColumnsArePlainLists:
    """Every list method answers on a loaded column as on the CSV column."""

    @pytest.mark.parametrize("load", [_unpacked, _opened, _snapshot_cache_hit],
                             ids=["unpack_tables", "open_snapshot_pair",
                                  "snapshot_cache_hit"])
    def test_list_methods_match_the_csv_column(self, tmp_path, load):
        csv_table = read_csv_text(TRAP_CSV)
        loaded = load(tmp_path, csv_table)
        assert loaded.frozen
        for attribute in csv_table.schema:
            column = loaded.column_view(attribute)
            expected = csv_table.column_view(attribute)
            assert type(column) is Column
            for value in ("x", "y", "1", "3"):
                assert column.count(value) == expected.count(value)
                if value in expected:
                    assert column.index(value) == expected.index(value)
            assert column.copy() == expected.copy()
            assert column + ["z"] == expected + ["z"]
            assert (column < ["y"]) == (expected < ["y"])
            assert (column < expected + ["z"]) is True


class TestUnpackedTable:
    def test_round_trip_preserves_contents(self, table):
        clone = round_trip(table)
        assert clone.n_rows == table.n_rows
        assert list(clone.schema) == list(table.schema)
        for attribute in table.schema:
            assert list(clone.column_view(attribute)) == \
                list(table.column_view(attribute))

    def test_round_trip_is_frozen(self, table):
        clone = round_trip(table)
        with pytest.raises(TableError):
            clone.append(("9", "z", "90"))


class TestContainer:
    def test_pack_unpack_round_trip(self, pair):
        source, target = pair
        blob = pack_tables([source, target], extra=b"\x01\x02", name="demo")
        tables, extra, name = unpack_tables(blob)
        assert extra == b"\x01\x02"
        assert name == "demo"
        assert len(tables) == 2
        for original, unpacked in zip(pair, tables):
            assert unpacked.n_rows == original.n_rows
            for attribute in original.schema:
                assert list(unpacked.column_view(attribute)) == \
                    list(original.column_view(attribute))

    def test_pack_is_deterministic(self, pair):
        assert pack_tables(list(pair)) == pack_tables(list(pair))

    def test_empty_tables(self, schema):
        empty = Table(schema)
        tables, _extra, _name = unpack_tables(pack_tables([empty]))
        assert tables[0].n_rows == 0
        assert list(tables[0].column_view("id")) == []

    @pytest.mark.parametrize("mutate", [
        lambda blob: b"",
        lambda blob: blob[:4],
        lambda blob: b"XX" + blob[2:],                       # bad magic
        lambda blob: blob[:8] + b"\xff" * 8 + blob[16:],     # huge header len
        lambda blob: blob[:20] + b"}" + blob[21:],           # broken JSON
        lambda blob: blob[:-1],                              # truncated payload
    ])
    def test_corruption_raises_format_error(self, pair, mutate):
        blob = pack_tables(list(pair))
        with pytest.raises(BufferFormatError):
            unpack_tables(mutate(blob))

    def test_wrong_format_version(self, pair):
        blob = bytearray(pack_tables(list(pair)))
        position = blob.find(b"buffer-pack/v1")
        blob[position:position + len(b"buffer-pack/v1")] = b"buffer-pack/v9"
        with pytest.raises(BufferFormatError):
            unpack_tables(bytes(blob))


class TestSnapshotPair:
    def test_write_open_round_trip(self, pair, tmp_path):
        source, target = pair
        path = write_snapshot_pair(source, target, tmp_path / "snap.afbuf",
                                   name="pairdemo")
        loaded_source, loaded_target, name = open_snapshot_pair(path)
        assert name == "pairdemo"
        for original, loaded in ((source, loaded_source), (target, loaded_target)):
            for attribute in original.schema:
                assert list(loaded.column_view(attribute)) == \
                    list(original.column_view(attribute))

    def test_open_missing_file(self, tmp_path):
        with pytest.raises(BufferFormatError):
            open_snapshot_pair(tmp_path / "missing.afbuf")

    def test_open_empty_file(self, tmp_path):
        path = tmp_path / "empty.afbuf"
        path.write_bytes(b"")
        with pytest.raises(BufferFormatError):
            open_snapshot_pair(path)

    def test_open_corrupt_file(self, pair, tmp_path):
        source, target = pair
        path = write_snapshot_pair(source, target, tmp_path / "snap.afbuf")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        try:
            loaded = open_snapshot_pair(path)
        except BufferFormatError:
            return
        # A flipped bit inside a value blob is undetectable structurally;
        # the tables must still be structurally sound then.
        for loaded_table in loaded[:2]:
            for attribute in loaded_table.schema:
                cells = list(loaded_table.column_view(attribute))
                assert len(cells) == loaded_table.n_rows

    def test_single_table_container_is_not_a_pair(self, pair, tmp_path):
        path = tmp_path / "one.afbuf"
        path.write_bytes(pack_tables([pair[0]]))
        with pytest.raises(BufferFormatError):
            open_snapshot_pair(path)


class TestInstanceIntegration:
    def test_save_load_round_trip(self, pair, tmp_path):
        instance = ProblemInstance(source=pair[0], target=pair[1], name="demo")
        path = instance.save(tmp_path / "inst.afbuf")
        loaded = ProblemInstance.load(path)
        assert loaded.name == "demo"
        assert loaded.n_source_records == instance.n_source_records
        for attribute in instance.schema:
            assert list(loaded.source.column_view(attribute)) == \
                list(instance.source.column_view(attribute))


class TestContentDigest:
    def test_stable_and_chunk_sensitive(self):
        assert content_digest(b"ab", b"c") == content_digest(b"ab", b"c")
        assert content_digest(b"ab", b"c") != content_digest(b"a", b"bc")
        assert content_digest(b"abc") != content_digest(b"ab", b"c")
