"""Self-test of the benchmark: every workload at its smallest size.

Run from the repository root:

    python3 -m pytest kinobench -q
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
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from spans import layer_metric_names  # noqa: E402

WORKLOADS = ("walks", "big-hull", "verify")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "kinobench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_nothing_fails(workload, trace):
    result = result_of(bench(ROOT, "--workload", workload, "--trace", str(trace), "--size", "mini"))
    expected = END_TO_END if trace == 0 else [(n, u) for n, u, _ in layer_metric_names()]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(expected)
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["correct"] is True
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_counted_as_failure(workload, trace):
    result = result_of(bench(ROOT, "--workload", workload, "--trace", str(trace),
                             "--size", "mini", "--corrupt"))
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "kinobench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "--workload", "walks", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
