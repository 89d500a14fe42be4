"""Smoke test of the benchmark harness, outside the tier-1 suite:

    python -m pytest -q perfbench/test_harness.py

Each workload runs shrunk to a few n, traced and untraced; every metric
BENCHMARK.json names must print with its unit.  A tampered output must
fail the run, and a directory without the program must be refused
without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench_run  # noqa: E402


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--shrink", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    rc, lines, stderr = _run(workload, trace)
    result = json.loads(lines[-1])
    assert rc == 0, stderr + "\n".join(lines[-25:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    report = lines[:-1]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in report), m["name"]
    assert any(line.startswith("failed_frac = 0 ") for line in report)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_output_fails_the_run(workload):
    rc, lines, _ = _run(workload, 0, "--tamper")
    result = json.loads(lines[-1])
    assert rc != 0
    assert not result["correct"] and result["failed"] > 0
    assert any(line.startswith("failed_frac = ") and not line.startswith("failed_frac = 0 ")
               for line in lines)


def test_refused_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, stderr = _run("range-sweep", 0, cwd=tmp_path)
    assert rc not in (0, 1) and not lines and "no logdisc source" in stderr


def test_tail_is_highest_percentile_with_ten_beyond():
    p, value, beyond = bench_run._tail([float(i) for i in range(600)])
    assert (p, beyond) == (98.0, 12) and value == pytest.approx(587.02)
    assert bench_run._tail([float(i) for i in range(16)]) == (100.0, 15.0, 0)
