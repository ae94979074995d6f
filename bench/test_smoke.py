"""Smoke test of the benchmark at a tiny size.

Runs every workload of BENCHMARK.json untraced and traced, and checks the
result line against the metric lists there: every metric present with its
unit, every check passed.  Run with ``python -m pytest bench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 120


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    record = json.loads(record_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())

    assert record["failed_frac"] == 0.0
    assert 0.0 <= record["capped_frac"] <= 1.0
    assert "harness.mse_meanfill" in record["references"]
    assert (record["rank_err"] is not None) == (workload == "rank-search-cli")
    assert ("harness.rate_slope" in record["references"]) == (workload == "grid-skewed-dense")
    assert {"nproc", "numpy", "blas", "blas_threads", "seed", "iteration_caps",
            "git_commit"} <= set(record["env"])


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
