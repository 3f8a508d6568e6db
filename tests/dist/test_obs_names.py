"""docs/OBSERVABILITY.md lists exactly the names ``repro.dist`` emits."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EMITTED = re.compile(r'(?:counter|gauge)\("(dist\.[\w.]+)"|_emit\("(shard\.[\w.]+)"')
DOCUMENTED = re.compile(r"^\| `((?:dist|shard)\.[\w.]+)` \|", re.MULTILINE)


def test_cluster_names_match_the_doc():
    emitted = {
        a or b
        for path in (ROOT / "src/repro/dist").glob("*.py")
        for a, b in EMITTED.findall(path.read_text())
    }
    documented = DOCUMENTED.findall((ROOT / "docs/OBSERVABILITY.md").read_text())
    assert len(documented) == len(set(documented))
    assert set(documented) == emitted
    assert {"dist.gather.tables_built", "shard.gather.build"} <= emitted
