"""Smoke test of the benchmark at tiny sizes.

Runs every workload's code path, untraced and traced, and checks that the
result line carries exactly the metric names and units of ``BENCHMARK.json``,
that one seed gives one output hash, and that the benchmark refuses to run
without the program.  From the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    return json.loads(info_line)["perfbench"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_the_spec(workload, trace):
    info, result = result_of(run(workload, 7, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert info["machine"]["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                                          "MKL_NUM_THREADS": "1"}
    if trace:
        trace_file = json.loads((ROOT / info["trace_file"]).read_text())
        spans = trace_file["spans"]
        assert spans and any(s["parent"] is not None for s in spans)
        ids = {s["id"]: s for s in spans}
        assert all(ids[s["parent"]]["op"] == s["op"] for s in spans if s["parent"] is not None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_one_output(workload):
    first, _ = result_of(run(workload, 11, 0))
    again, _ = result_of(run(workload, 11, 0))
    other, _ = result_of(run(workload, 12, 0))
    assert first["output_sha256"] == again["output_sha256"]
    assert first["output_sha256"] != other["output_sha256"]
    assert first["gates_sha256"] == again["gates_sha256"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
