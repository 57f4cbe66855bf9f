"""Tests of the session's content-addressed binary snapshot cache."""

from __future__ import annotations

import pytest

from repro.api import ExplainRequest, Session
from repro.api import session as session_module
from repro.core import identity_configuration
from repro.dataio import write_csv


@pytest.fixture
def data_root(tmp_path, running_source, running_target):
    root = tmp_path / "data"
    root.mkdir()
    write_csv(running_source, root / "source.csv")
    write_csv(running_target, root / "target.csv")
    return root


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "snapcache"


@pytest.fixture
def session(data_root, cache_dir):
    return (
        Session()
        .with_config(identity_configuration(max_expansions=50, seed=5))
        .with_data_root(data_root)
        .with_snapshot_cache(cache_dir)
    )


@pytest.fixture
def request_paths():
    return ExplainRequest(source_path="source.csv", target_path="target.csv")


class TestSnapshotCache:
    def test_miss_writes_a_cache_entry(self, session, cache_dir, request_paths):
        outcome = session.explain(request_paths)
        assert outcome.result.cost >= 0
        entries = list(cache_dir.glob("*.afbuf"))
        assert len(entries) == 1

    def test_hit_skips_csv_parsing(self, session, cache_dir, request_paths,
                                   monkeypatch):
        reference = session.explain(request_paths)
        assert list(cache_dir.glob("*.afbuf"))

        def no_csv(self, data_root=None):
            raise AssertionError("cache hit must not parse CSV")

        monkeypatch.setattr(ExplainRequest, "load_tables", no_csv)
        cached = session.explain(request_paths)
        assert cached.result.cost == reference.result.cost
        assert cached.result.explanation.functions == \
            reference.result.explanation.functions
        assert cached.result.expansions == reference.result.expansions

    def test_corrupt_entry_falls_back_to_csv_and_rewrites(
            self, session, cache_dir, request_paths):
        session.explain(request_paths)
        entry = next(iter(cache_dir.glob("*.afbuf")))
        entry.write_bytes(b"not a buffer pack")
        outcome = session.explain(request_paths)
        assert outcome.result.cost >= 0
        assert entry.read_bytes() != b"not a buffer pack"

    def test_truncated_entry_is_rewritten_byte_identically(
            self, session, cache_dir, request_paths):
        from repro.dataio import open_snapshot_pair

        reference = session.explain(request_paths)
        entry = next(iter(cache_dir.glob("*.afbuf")))
        written = entry.read_bytes()
        entry.write_bytes(written[:len(written) // 2])
        outcome = session.explain(request_paths)
        assert outcome.result.cost == reference.result.cost
        assert outcome.result.explanation.functions == \
            reference.result.explanation.functions
        open_snapshot_pair(entry)
        assert entry.read_bytes() == written

    def test_data_root_may_be_a_string(self, data_root, cache_dir, request_paths):
        session = (
            Session()
            .with_config(identity_configuration(max_expansions=50, seed=5))
            .with_data_root(str(data_root))
            .with_snapshot_cache(str(cache_dir))
        )
        assert session.explain(request_paths).result.cost >= 0
        assert len(list(cache_dir.glob("*.afbuf"))) == 1

    def test_inline_csv_requests_are_cached_too(self, cache_dir, running_source,
                                                running_target):
        from repro.dataio import to_csv_text

        session = (
            Session()
            .with_config(identity_configuration(max_expansions=50, seed=5))
            .with_snapshot_cache(cache_dir)
        )
        request = ExplainRequest(
            source_csv=to_csv_text(running_source),
            target_csv=to_csv_text(running_target),
        )
        session.explain(request)
        assert len(list(cache_dir.glob("*.afbuf"))) == 1
        session.explain(request)
        assert len(list(cache_dir.glob("*.afbuf"))) == 1

    def test_lone_surrogate_cell_bypasses_the_cache(self, cache_dir):
        session = (
            Session()
            .with_config(identity_configuration(max_expansions=50, seed=5))
            .with_snapshot_cache(cache_dir)
        )
        request = ExplainRequest(source_csv="a,b\n1\ud800,2\n",
                                 target_csv="a,b\n1,2\n")
        assert session.explain(request).result.cost == \
            Session().with_config(identity_configuration(
                max_expansions=50, seed=5)).explain(request).result.cost
        assert not list(cache_dir.glob("*.afbuf"))

    def test_different_snapshots_get_different_entries(
            self, session, cache_dir, data_root, request_paths, running_target):
        session.explain(request_paths)
        write_csv(running_target, data_root / "other.csv")
        session.explain(ExplainRequest(
            source_path="other.csv", target_path="target.csv"
        ))
        assert len(list(cache_dir.glob("*.afbuf"))) == 2

    def test_no_cache_dir_means_no_files(self, data_root, tmp_path,
                                         request_paths):
        session = (
            Session()
            .with_config(identity_configuration(max_expansions=50, seed=5))
            .with_data_root(data_root)
        )
        session.explain(request_paths)
        assert not list(tmp_path.glob("**/*.afbuf"))

    def test_unreadable_path_surfaces_as_validation_error(self, session):
        from repro.api import RequestValidationError

        with pytest.raises(RequestValidationError):
            session.explain(ExplainRequest(
                source_path="missing.csv", target_path="target.csv"
            ))
