"""docs/OBSERVABILITY.md lists exactly the names the engine emits."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EMITTED = re.compile(r'(counter|histogram|emit)\(\s*"(executor\.[\w.]+)"')
DOCUMENTED = re.compile(r"^\| `(executor\.[\w.]+)` \| (\w+) \|", re.MULTILINE)
#: Counter names ``Database`` would emit, as string literals.
DATABASE_NAMES = re.compile(r'"(engine\.[\w.]+)"')
DOCUMENTED_DATABASE = re.compile(
    r"^\| `(engine\.[\w.]+)` \| (\w+) \|", re.MULTILINE
)


def test_executor_names_match_the_doc():
    source = (ROOT / "src/repro/engine/executor.py").read_text()
    emitted = {
        (name, "event" if kind == "emit" else kind)
        for kind, name in EMITTED.findall(source)
    }
    doc = (ROOT / "docs/OBSERVABILITY.md").read_text()
    documented = [(name, kind) for name, kind in DOCUMENTED.findall(doc)]
    assert len(documented) == len(set(documented))
    assert set(documented) == emitted
    assert ("executor.checkpoint.rows_copied", "counter") in emitted


def test_database_names_match_the_doc():
    source = (ROOT / "src/repro/engine/database.py").read_text()
    emitted = {(name, "counter") for name in DATABASE_NAMES.findall(source)}
    doc = (ROOT / "docs/OBSERVABILITY.md").read_text()
    documented = DOCUMENTED_DATABASE.findall(doc)
    assert len(documented) == len(set(documented))
    assert set(documented) == emitted
    # Statement execution is counted by the executor; Database itself
    # emits nothing, and the doc says so.
    assert emitted == set()
