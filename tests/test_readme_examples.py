"""Documentation accuracy: the README's code blocks actually run."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_readme_exists_with_expected_sections(self):
        text = README.read_text()
        for heading in ("## Installation", "## Quickstart", "## Architecture",
                        "## Testing"):
            assert heading in text

    def test_python_blocks_execute(self):
        blocks = python_blocks()
        assert blocks, "README should contain python examples"
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})  # noqa: S102

    def test_quickstart_numbers_are_accurate(self):
        """The quickstart promises specific numbers; hold the docs to them."""
        from repro import MultiQueryProgressIndicator, SimulatedRDBMS, SyntheticJob

        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("small-1", cost=100))
        rdbms.submit(SyntheticJob("small-2", cost=200))
        rdbms.submit(SyntheticJob("big", cost=900))
        snapshot = rdbms.snapshot()
        multi = MultiQueryProgressIndicator().estimate(snapshot).for_query("big")
        single = snapshot.find("big").remaining_cost / (10.0 / 3)
        assert multi == pytest.approx(120.0)
        assert single == pytest.approx(270.0)
        rdbms.run_to_completion()
        assert rdbms.traces["big"].finished_at == pytest.approx(120.0)

    def test_documented_cli_commands_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        text = README.read_text()
        for command in ("sql", "experiment", "report"):
            assert command in text
            # parse a representative invocation without executing it
            if command == "sql":
                parser.parse_args(["sql", "SELECT 1"])
            elif command == "experiment":
                parser.parse_args(["experiment", "mcq"])
            else:
                parser.parse_args(["report"])
