"""Self-test of the benchmark, run from the repository root with::

    python3 -m pytest perfbench -q

Each workload runs at a tiny size (``--tiny``, one second) in both modes and
must pass its output checks and emit exactly the metrics that
``BENCHMARK.json`` names, each with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_named_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in named}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_queries_digest_is_the_same_for_one_seed():
    digests = []
    for _ in range(2):
        proc = bench("queries", 0, seed=9)
        assert proc.returncode == 0, proc.stderr
        details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
        digests.append(details["round_digests"]["0"])
    assert digests[0] == digests[1]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("census", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
