"""Self-test of the benchmark: every workload at smoke size prints every
metric BENCHMARK.json names, with its unit; a wrong golden entry is counted
as a failed job; the benchmark refuses to run without the sources.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "7",
                           "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    out = result(bench("--workload", workload, "--size", "smoke", "--trace", str(trace)))
    assert out["correct"] is True
    assert out["failed"] == 0
    assert out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        # Named layer spans account for the traced run's time.
        assert out["metrics"]["trace.named_self_share"]["value"] >= 0.9


def test_corrupted_golden_entry_counts_as_failed(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(BENCH / "golden", golden)
    table = json.loads((golden / "table.json").read_text())
    table["6"][0] += 1
    (golden / "table.json").write_text(json.dumps(table))
    out = result(bench("--workload", "table", "--size", "smoke", "--trace", "0",
                       "--golden", str(golden)))
    assert out["correct"] is False
    assert out["failed"] >= 1
    assert out["failed"] * 11 == out["attempted"]  # one bad job of 11 per run


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "table", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cache_list_covers_every_lru_cache():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import layertrace
        import orbitpairs  # noqa: F401  (loads every module)
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(BENCH))
    found = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("orbitpairs."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_info") and value.__module__ == name:
                    found.add((name.split(".", 1)[1], attr))
    assert found == set(layertrace.CACHES)
