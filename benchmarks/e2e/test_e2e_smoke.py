"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Outside tier-1 (``testpaths = ["tests"]``).  Runs every workload at
``--quick`` size, traced and untraced, and checks that what the runner
prints is what ``BENCHMARK.json`` declares.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_quick_run_prints_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr

    printed: dict[tuple[str, str], str] = {}
    for line in done.stdout.splitlines():
        if line.startswith("metric "):
            _, workload, name, value, unit = line.split()
            float(value)
            printed[workload, name] = unit

    workloads = {w["name"] for w in SPEC["workloads"]}
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {w for w, _ in printed} == workloads
    for workload in workloads:
        assert {n for w, n in printed if w == workload} == set(declared)
    for (workload, name), unit in printed.items():
        assert NAME.fullmatch(workload) and NAME.fullmatch(name)
        assert unit and unit == declared[name]

    report = json.loads(out.read_text())
    assert set(report["workloads"]) == workloads
    for entry in report["workloads"].values():
        assert len(set(entry["signatures"])) == 1  # traced == untraced
    # A report agrees with itself: --compare finds no violation.
    same = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout
