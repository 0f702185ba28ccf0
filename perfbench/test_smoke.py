"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced at ``--size smoke``; the
result line must name exactly the metrics of BENCHMARK.json, each with
its unit, and every output check must pass.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == wanted
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        if not trace:
            assert entry["value"] > 0, name


def test_traced_layers_account_for_the_traced_wall() -> None:
    proc = _run(ROOT, "paper", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    self_times = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert metrics["unattributed_s"]["value"] >= 0.0
    assert self_times + metrics["unattributed_s"]["value"] == pytest.approx(
        metrics["trace_wall_s"]["value"], rel=1e-9)
    assert metrics["neural.backward_calls"]["value"] > 0


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "paper", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
