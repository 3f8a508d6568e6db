"""docs/OBSERVABILITY.md lists exactly the names ``repro.qos`` emits.

Admission and ladder names are f-strings, so they are expanded here from
the ``Outcome`` literal and from the ``_note("...")`` calls.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
QOS = ROOT / "src/repro/qos"
LITERAL = re.compile(r'(?:counter|gauge|emit)\(\s*"(qos\.[\w.-]+)"')
DOCUMENTED = re.compile(r"^\| `(qos\.[\w.-]+)` \|", re.MULTILINE)


def emitted_names():
    admission = (QOS / "admission.py").read_text()
    ladder = (QOS / "ladder.py").read_text()
    assert 'counter(f"qos.admission.{decision.outcome}")' in admission
    assert 'counter(f"qos.ladder.{action}")' in ladder
    outcomes = re.search(r"^Outcome = Literal\[(.*?)\]", admission, re.MULTILINE)
    actions = re.findall(r'_note\(\s*"([\w-]+)"', ladder)
    names = {f"qos.admission.{o}" for o in re.findall(r'"(\w+)"', outcomes.group(1))}
    names |= {f"qos.ladder.{a}" for a in actions}
    for path in QOS.glob("*.py"):
        names |= set(LITERAL.findall(path.read_text()))
    return names


def test_qos_names_match_the_doc():
    emitted = emitted_names()
    documented = DOCUMENTED.findall((ROOT / "docs/OBSERVABILITY.md").read_text())
    assert len(documented) == len(set(documented))
    assert set(documented) == emitted
    assert {
        "qos.admission.defer",
        "qos.ladder.restore-cadence",
        "qos.ladder.park",
        "qos.ladder.rung",
    } <= emitted
