"""Smoke test of the benchmark at tiny sizes; not part of the package tests.

    python3 -m pytest bench/test_smoke.py

Every workload, declared in BENCHMARK.json or not, runs once untraced and
once traced. The result line must
carry exactly the metrics BENCHMARK.json declares, with their units, and
the run's report the workload-specific metrics as well.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from metrics import END_TO_END, PER_LAYER, WORKLOAD_ONLY  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED_NAMES = [w["name"] for w in DECLARED["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_declaration_matches_the_harness():
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == \
        {name: WORKLOADS[name].why for name in DECLARED_NAMES}
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]} == \
        {name: spec[:2] for name, spec in PER_LAYER.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    report = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace{trace}-smoke"
                         / "report.json").read_text())
    assert report["environment"]["pins"] == dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    if trace:
        return
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, (unit, where) in WORKLOAD_ONLY.items():
        if where in ("all", workload):
            assert report["metrics"][name]["unit"] == unit


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", DECLARED_NAMES[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
