"""Smoke test of the benchmark.

Each workload runs at its smallest size (``--seconds 1``, one whole op
cycle) in both trace modes and must print every metric BENCHMARK.json
names, with its unit, and no failed op.  Without qspeed's sources the
benchmark must exit non-zero without printing a result.

Run from the repository root (about three minutes on two cores):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, \
        proc.stdout.splitlines()[-2]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
