"""Unit tests for repro.dataio.buffers: the binary columnar store."""

import pickle

import pytest

from repro.core import ProblemInstance
from repro.dataio import (
    BufferColumn,
    BufferFormatError,
    Column,
    ColumnBuffer,
    Schema,
    Table,
    TableError,
    ValueBlob,
    buffer_table,
    content_digest,
    open_snapshot_pair,
    pack_tables,
    unpack_tables,
    write_snapshot_pair,
)


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


class TestValueBlob:
    def test_round_trip(self):
        blob = ValueBlob.from_values(["alpha", "", "βγ", "b"])
        assert len(blob) == 4
        assert blob.values() == ["alpha", "", "βγ", "b"]
        assert blob.value(2) == "βγ"

    def test_empty(self):
        blob = ValueBlob.from_values([])
        blob.validate()
        assert len(blob) == 0
        assert blob.values() == []

    def test_out_of_range_index(self):
        blob = ValueBlob.from_values(["a"])
        with pytest.raises(BufferFormatError):
            blob.value(1)
        with pytest.raises(BufferFormatError):
            blob.value(-1)

    def test_validate_rejects_decreasing_offsets(self):
        blob = ValueBlob([0, 2, 1], b"ab")
        with pytest.raises(BufferFormatError):
            blob.validate()

    def test_validate_rejects_bad_terminal_offset(self):
        blob = ValueBlob([0, 1], b"abc")
        with pytest.raises(BufferFormatError):
            blob.validate()

    def test_validate_rejects_empty_offsets(self):
        with pytest.raises(BufferFormatError):
            ValueBlob([], b"").validate()

    def test_invalid_utf8_is_a_format_error(self):
        blob = ValueBlob([0, 2], b"\xff\xfe")
        with pytest.raises(BufferFormatError):
            blob.value(0)


class TestColumnBuffer:
    def test_from_column_round_trip(self):
        column = Column(["x", "y", "x", "z"])
        buffer = ColumnBuffer.from_column(column)
        assert buffer.n_rows == 4
        assert buffer.n_values == 3
        assert buffer.decode() == ["x", "y", "x", "z"]
        assert buffer.codebook() == {"x": 0, "y": 1, "z": 2}

    def test_contains_and_histogram_without_decoding_cells(self):
        buffer = ColumnBuffer.from_column(Column(["a", "b", "a"]))
        assert buffer.contains("a")
        assert not buffer.contains("missing")
        assert buffer.value_histogram() == {"a": 2, "b": 1}

    def test_out_of_range_code_rejected(self):
        buffer = ColumnBuffer([0, 5], ValueBlob.from_values(["only"]))
        with pytest.raises(BufferFormatError):
            buffer.validate()

    def test_negative_code_rejected(self):
        buffer = ColumnBuffer([-1], ValueBlob.from_values(["only"]))
        with pytest.raises(BufferFormatError):
            buffer.decode()

    def test_non_injective_codebook_rejected(self):
        buffer = ColumnBuffer([0, 1], ValueBlob.from_values(["dup", "dup"]))
        with pytest.raises(BufferFormatError):
            buffer.codebook()

    def test_from_buffer_column_reuses_buffer(self):
        buffer = ColumnBuffer.from_column(Column(["a", "b"]))
        wrapped = BufferColumn(buffer)
        assert ColumnBuffer.from_column(wrapped) is buffer


class TestBufferColumn:
    def _column(self, cells=("a", "b", "a", "c")):
        return BufferColumn(ColumnBuffer.from_column(Column(list(cells))))

    def test_stats_queries_stay_lazy(self):
        column = self._column()
        assert len(column) == 4
        assert "b" in column
        assert "missing" not in column
        assert column.value_counts() == {"a": 2, "b": 1, "c": 1}
        codes, codebook = column.dictionary()
        assert list(codes) == [0, 1, 0, 2]
        assert codebook == {"a": 0, "b": 1, "c": 2}
        assert not column.materialised

    def test_positional_access_materialises(self):
        column = self._column()
        assert column[1] == "b"
        assert column.materialised
        assert list(column) == ["a", "b", "a", "c"]

    def test_equality_both_directions(self):
        plain = Column(["a", "b", "a", "c"])
        assert self._column() == plain
        assert plain == self._column()
        assert self._column() == ["a", "b", "a", "c"]
        assert self._column() != ["a", "b"]

    def test_non_string_membership_is_false_while_lazy(self):
        assert 42 not in self._column()

    def test_mutation_detaches_the_buffer(self):
        column = self._column()
        column.append("d")
        assert column.buffer is None
        assert list(column) == ["a", "b", "a", "c", "d"]
        assert column.value_counts()["d"] == 1

    def test_pickle_flattens_to_plain_column(self):
        clone = pickle.loads(pickle.dumps(self._column()))
        assert type(clone) is Column
        assert list(clone) == ["a", "b", "a", "c"]

    def test_stats_agree_with_plain_column(self):
        cells = ["10", "20", "10", "x", ""]
        lazy, plain = self._column(cells), Column(cells)
        assert lazy.kind == plain.kind
        assert lazy.distinct_count() == plain.distinct_count()
        assert lazy.missing_count() == plain.missing_count()
        assert lazy.numeric_count() == plain.numeric_count()


class TestBufferTable:
    def test_buffer_table_preserves_contents(self, table):
        clone = buffer_table(table)
        assert clone.n_rows == table.n_rows
        assert list(clone.schema) == list(table.schema)
        for attribute in table.schema:
            assert list(clone.column_view(attribute)) == \
                list(table.column_view(attribute))

    def test_buffer_table_is_frozen(self, table):
        clone = buffer_table(table)
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

    def test_unpacked_columns_are_lazy(self, pair):
        tables, _extra, _name = unpack_tables(pack_tables(list(pair)))
        column = tables[0].column_view("name")
        assert isinstance(column, BufferColumn)
        assert not column.materialised
        assert len(column) == 3

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
