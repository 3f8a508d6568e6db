"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "mcq"])
        assert args.name == "mcq"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "bogus"])


class TestSql:
    def test_select(self, capsys):
        code = main(["sql", "SELECT count(*) FROM part_1", "--scale", "0.0001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(1 rows)" in out

    def test_explain(self, capsys):
        code = main(
            ["sql", "--explain", "SELECT * FROM part_1 WHERE partkey = 3",
             "--scale", "0.0001"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated cost" in out

    def test_dml_row_count(self, capsys):
        # The engine runs no DML: there is no row count, only an error.
        code = main(
            ["sql", "DELETE FROM part_1 WHERE partkey > 0", "--scale", "0.0001"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_ddl_rejected(self, capsys):
        # The database is generated per call and discarded on exit, so a
        # CREATE would have no effect: only SELECT runs.
        for ddl in ("CREATE TABLE z (a INT)",
                    "CREATE INDEX z_i ON part_1 (partkey)"):
            code = main(["sql", ddl, "--scale", "0.0001"])
            assert code == 1
            captured = capsys.readouterr()
            assert "error:" in captured.err
            assert "ok" not in captured.out

    def test_bad_sql_reports_error(self, capsys):
        code = main(["sql", "SELEC oops", "--scale", "0.0001"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestShard:
    def test_scripted_crash_demo(self, capsys):
        assert main(["shard"]) == 0
        out = capsys.readouterr().out
        assert "cluster: 4 shards x 2 replicas" in out
        assert "Q1 [pushdown]" in out
        assert "Q2 [gather]" in out
        assert "fault plan:" in out
        assert "global PI" in out
        assert "fault/recovery log:" in out
        assert "identical to single-node: yes" in out
        assert "NO" not in out
        assert "failovers:" in out

    def test_no_fault_baseline(self, capsys):
        assert main(["shard", "--no-fault", "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "(no faults injected)" in out
        assert "identical to single-node: yes" in out

    def test_seeded_node_fault_plan(self, capsys):
        assert main(["shard", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "fault plan:" in out
        assert "identical to single-node: yes" in out

    def test_invalid_knobs_report_clean_errors(self, capsys):
        assert main(["shard", "--shards", "1"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["shard", "--replication", "9"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["shard", "--crash-node", "node99"]) == 1
        assert "error:" in capsys.readouterr().err


class TestExperiments:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "lineitem" in capsys.readouterr().out

    def test_mcq(self, capsys):
        assert main(["experiment", "mcq", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "multi-query" in out and "single-query" in out

    def test_naq(self, capsys):
        assert main(["experiment", "naq"]) == 0
        assert "Q3 starts" in capsys.readouterr().out

    def test_scq_small(self, capsys):
        assert main(["experiment", "scq", "--runs", "2"]) == 0
        assert "lambda" in capsys.readouterr().out

    def test_maintenance_small(self, capsys):
        assert main(["experiment", "maintenance", "--runs", "2"]) == 0
        assert "t/t_finish" in capsys.readouterr().out

    def test_csv_export(self, capsys, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["experiment", "table1", "--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "table,tuples,pages"
        assert any(line.startswith("lineitem") for line in lines)

    def test_csv_export_sweep(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(
            ["experiment", "maintenance", "--runs", "2", "--csv", str(out)]
        ) == 0
        assert out.read_text().count("\n") >= 5


class TestObservedReport:
    def test_observe_prints_accuracy_summary(self, capsys):
        assert main(["report", "--observe", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "observed MCQ run" in out
        assert "trace events:" in out
        assert "rdbms.finished" in out
        assert "profile" in out
        assert "backends:" not in out

    def test_observe_is_deterministic(self, capsys):
        assert main(["report", "--observe", "--seed", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["report", "--observe", "--seed", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_observe_trace_and_metrics_outputs(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        bench = tmp_path / "BENCH_obs.json"
        code = main([
            "report", "--observe",
            "--trace", str(trace),
            "--metrics-json", str(bench),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote trace to {trace}" in out
        assert f"merged 'metrics' section into {bench}" in out
        import json

        data = json.loads(bench.read_text())
        assert data["metrics"]["counters"]["rdbms.finished"] == 10.0

    def test_validate_trace_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["report", "--observe", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", "--validate-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "schema ok" in out

    def test_validate_trace_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["report", "--validate-trace", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_validate_trace_missing_file(self, capsys, tmp_path):
        assert main(["report", "--validate-trace", str(tmp_path / "no.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestOverload:
    def test_protected_storm(self, capsys):
        code = main([
            "overload", "--burst", "12", "--cost", "10", "--spread", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "protection ON" in out
        assert "admission" in out
        assert "ladder" in out
        assert "vip deadlines held" in out

    def test_unprotected_storm(self, capsys):
        code = main([
            "overload", "--burst", "12", "--cost", "10", "--unprotected",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "protection OFF" in out
        assert "admission" not in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--burst", "0"),
            ("--cost", "0"),
            ("--spread", "-1"),
            ("--rate", "0"),
            ("--mpl", "0"),
        ],
    )
    def test_bad_knob_prints_error(self, flag, value, capsys):
        code = main(["overload", flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}")
