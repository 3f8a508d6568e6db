"""Tests for the one-command reproduction report."""

import pytest

from repro.experiments.full_report import ReportConfig, generate_report


@pytest.fixture(scope="module")
def report():
    return generate_report(ReportConfig(runs=2, seed=42))


class TestGenerateReport:
    def test_every_artifact_present(self, report):
        for heading in (
            "Table 1",
            "Figure 1",
            "Figure 2",
            "Figures 3 & 4",
            "Figure 5",
            "Figures 6 & 7",
            "Figures 8 & 9",
            "Figure 10",
            "Figure 11",
            "Prototype fidelity",
        ):
            assert heading in report, f"missing section {heading!r}"

    def test_contains_measured_series(self, report):
        assert "single-query estimate" in report
        assert "multi-query estimate" in report
        assert "t/t_finish" in report
        assert "lambda'" in report

    def test_markdown_structure(self, report):
        lines = report.splitlines()
        assert lines[0].startswith("# Reproduction report")
        # balanced code fences
        assert sum(1 for l in lines if l.strip() == "```") % 2 == 0

    def test_deterministic(self):
        a = generate_report(ReportConfig(runs=1, seed=1))
        b = generate_report(ReportConfig(runs=1, seed=1))
        assert a == b


class TestReportCommand:
    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.md"
        assert main(["report", "--out", str(out), "--runs", "1"]) == 0
        assert out.exists()
        assert "Figure 11" in out.read_text()
