"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/check_smoke.py

Runs every workload once untraced and once traced with ``--tiny`` and one
second each (about a minute in all), and checks that every metric
BENCHMARK.json names is printed with its unit and that no operation failed.
The file name keeps it out of the tier-1 test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import layers  # noqa: E402


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(trace):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)


def check_result(proc, listed):
    workloads = [w["name"] for w in load_bench()["workloads"]]
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(workloads)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in workloads for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    fail_lines = [line.split() for line in lines if line.startswith("# fail_ratio ")]
    assert len(fail_lines) == len(workloads)
    assert all(float(f[2]) == 0.0 and f[3] == "ratio" for f in fail_lines)


def test_end_to_end_metrics_printed_and_nothing_fails():
    check_result(run_all(0), load_bench()["end_to_end"])


def test_layer_metrics_printed_and_nothing_fails():
    check_result(run_all(1), load_bench()["per_layer"])


def test_benchmark_json_lists_the_layer_table():
    table = [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in layers.all_metrics()]
    assert load_bench()["per_layer"] == table


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-graph", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
