"""Toy-size smoke test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at toy geometry, untraced and traced, and checks that
the result is correct and carries exactly the metrics ``BENCHMARK.json``
names, each with its unit.  Also checks that the benchmark refuses to run
without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _restore_blas_env(monkeypatch):
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_toy_run_emits_every_metric(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--toy"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert run.WORKLOAD_NAMES == tuple(w["name"] for w in BENCH["workloads"])


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", BENCH["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
