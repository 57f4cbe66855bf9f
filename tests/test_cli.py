"""Tests of the command-line interface (repro.cli)."""

import json
import sys

import pytest

from repro.cli import build_parser, main
from repro.dataio import read_csv, write_csv
from repro.datagen.running_example import source_table, target_table
from repro.export import explanation_from_json


@pytest.fixture
def snapshot_files(tmp_path):
    source_path = tmp_path / "source.csv"
    target_path = tmp_path / "target.csv"
    write_csv(source_table(), source_path)
    write_csv(target_table(), target_path)
    return source_path, target_path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explain_defaults(self, snapshot_files):
        source_path, target_path = snapshot_files
        args = build_parser().parse_args(["explain", str(source_path), str(target_path)])
        assert args.config == "hid"
        assert args.json is None

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "iris"])
        assert args.eta == 0.3
        assert args.tau == 0.3


class TestExplainCommand:
    def test_prints_report(self, snapshot_files, capsys):
        source_path, target_path = snapshot_files
        exit_code = main(["explain", str(source_path), str(target_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "attribute transformations" in output
        assert "Val" in output

    def test_writes_json_sql_and_report(self, snapshot_files, tmp_path, capsys):
        source_path, target_path = snapshot_files
        json_path = tmp_path / "explanation.json"
        sql_path = tmp_path / "migration.sql"
        report_path = tmp_path / "report.txt"
        exit_code = main([
            "explain", str(source_path), str(target_path),
            "--quiet",
            "--json", str(json_path),
            "--sql", str(sql_path),
            "--table-name", "erp_items",
            "--report", str(report_path),
        ])
        assert exit_code == 0
        assert capsys.readouterr().out == ""

        explanation = explanation_from_json(json_path.read_text())
        assert explanation.core_size == 13

        sql = sql_path.read_text()
        assert '"erp_items"' in sql
        assert "UPDATE" in sql and "INSERT INTO" in sql

        assert "record-level changes" in report_path.read_text()

    def test_profile_flag_prints_phase_table(self, snapshot_files, capsys):
        source_path, target_path = snapshot_files
        exit_code = main([
            "explain", str(source_path), str(target_path), "--quiet", "--profile",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "phase" in output and "share" in output
        for phase in ("load", "search", "total"):
            assert phase in output
        # --quiet suppresses the report but not the explicitly requested
        # profile; the table is the only output.
        assert "snapshot difference report" not in output

    def test_trace_flag_writes_chrome_trace_json(self, snapshot_files, tmp_path, capsys):
        source_path, target_path = snapshot_files
        trace_path = tmp_path / "trace.json"
        exit_code = main([
            "explain", str(source_path), str(target_path), "--quiet",
            "--trace", str(trace_path),
        ])
        assert exit_code == 0
        # --quiet suppresses the confirmation line but not the file itself.
        assert capsys.readouterr().out == ""
        document = json.loads(trace_path.read_text(encoding="utf-8"))
        events = document["traceEvents"]
        assert events, "trace file holds no events"
        names = {event["name"] for event in events}
        assert {"explain", "search"} <= names
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_profile_renders_the_span_tree(self, snapshot_files, capsys):
        source_path, target_path = snapshot_files
        exit_code = main([
            "explain", str(source_path), str(target_path), "--quiet", "--profile",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        # The span-tree profile shows real engine phases, not just the
        # legacy three-row load/search/total table.
        assert "induction" in output

    def test_overlap_configuration_flag(self, snapshot_files, capsys):
        source_path, target_path = snapshot_files
        exit_code = main([
            "explain", str(source_path), str(target_path), "--config", "hs",
        ])
        assert exit_code == 0
        assert "snapshot difference report" in capsys.readouterr().out

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["explain", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])

    def test_reserved_sentinel_cell_exits_2_without_traceback(self, tmp_path, capsys):
        from repro.core.colcache import NOT_APPLICABLE

        source_path, target_path = tmp_path / "s.csv", tmp_path / "t.csv"
        source_path.write_text(f"K\nplain\n{NOT_APPLICABLE}\n", encoding="utf-8")
        target_path.write_text("K\nplain\n", encoding="utf-8")
        exit_code = main(["explain", str(source_path), str(target_path), "--quiet"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if sys.version_info >= (3, 11):  # older csv modules reject the NUL first
            assert "NOT_APPLICABLE" in err


class TestGenerateCommand:
    def test_writes_snapshot_pair(self, tmp_path, capsys):
        exit_code = main([
            "generate", "iris", "--records", "90", "--eta", "0.2", "--tau", "0.2",
            "--output-dir", str(tmp_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "wrote" in output
        source = read_csv(tmp_path / "iris_source.csv")
        target = read_csv(tmp_path / "iris_target.csv")
        assert source.schema == target.schema
        assert source.n_rows > 0

    def test_unknown_dataset_fails(self, tmp_path):
        with pytest.raises(KeyError):
            main(["generate", "no-such-dataset", "--output-dir", str(tmp_path)])


class TestDatasetsCommand:
    def test_lists_catalog(self, capsys):
        exit_code = main(["datasets"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "iris" in output and "uniprot" in output
        assert "records" in output


class TestEndToEndViaCli:
    def test_generate_then_explain(self, tmp_path, capsys):
        main([
            "generate", "balance", "--records", "150", "--seed", "5",
            "--output-dir", str(tmp_path),
        ])
        json_path = tmp_path / "explanation.json"
        exit_code = main([
            "explain",
            str(tmp_path / "balance_source.csv"),
            str(tmp_path / "balance_target.csv"),
            "--quiet",
            "--json", str(json_path),
        ])
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert "functions" in payload and "alignment" in payload


class TestFunctionsAndEngineFlags:
    @pytest.fixture
    def division_files(self, tmp_path):
        from repro.dataio import Schema, Table

        schema = Schema(("id", "val"))
        source = Table(schema, [(str(i), str(i * 700)) for i in range(1, 9)])
        target = Table(schema, [(str(i), str(i * 7)) for i in range(1, 9)])
        source_path = tmp_path / "pair_source.csv"
        target_path = tmp_path / "pair_target.csv"
        write_csv(source, source_path)
        write_csv(target, target_path)
        return source_path, target_path

    def test_functions_flag_restricts_the_pool(self, division_files, tmp_path, capsys):
        source_path, target_path = division_files
        json_path = tmp_path / "explanation.json"
        exit_code = main([
            "explain", str(source_path), str(target_path),
            "--functions", "identity,division", "--quiet",
            "--json", str(json_path),
        ])
        assert exit_code == 0
        explanation = explanation_from_json(json_path.read_text())
        assert explanation.functions["val"].meta_name == "division"

    def test_unknown_function_name_fails_cleanly(self, division_files, capsys):
        source_path, target_path = division_files
        exit_code = main([
            "explain", str(source_path), str(target_path),
            "--functions", "warp", "--quiet",
        ])
        assert exit_code == 2
        assert "warp" in capsys.readouterr().err

    def test_rowwise_engine_flag(self, division_files, capsys):
        source_path, target_path = division_files
        exit_code = main([
            "explain", str(source_path), str(target_path),
            "--engine", "rowwise",
        ])
        assert exit_code == 0
        assert "snapshot difference report" in capsys.readouterr().out

    def test_batch_accepts_functions_flag(self, division_files, tmp_path, capsys):
        out_dir = tmp_path / "out"
        exit_code = main([
            "batch", str(tmp_path), "--functions", "identity,division",
            "--output-dir", str(out_dir), "--quiet",
        ])
        assert exit_code == 0
        summary = json.loads((out_dir / "batch_summary.json").read_text())
        assert summary[0]["state"] == "done"


class TestFuzzCommand:
    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.time_budget == 30.0
        assert args.seed == 0
        assert args.max_execs is None
        assert args.corpus is None

    def test_short_clean_run_exits_zero(self, capsys):
        code = main(["fuzz", "--time-budget", "20", "--max-execs", "12",
                     "--seed", "0", "--no-coverage", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz: 12 execs" in out
        assert "findings: 0" in out

    def test_corpus_directory_receives_no_findings_when_green(self, tmp_path, capsys):
        code = main(["fuzz", "--time-budget", "20", "--max-execs", "8",
                     "--seed", "1", "--no-coverage", "--quiet",
                     "--corpus", str(tmp_path)])
        assert code == 0
        assert not list((tmp_path / "findings").glob("*.json"))

    def test_serve_parser_accepts_max_body_bytes(self):
        args = build_parser().parse_args(
            ["serve", "--max-body-bytes", "4096"])
        assert args.max_body_bytes == 4096
