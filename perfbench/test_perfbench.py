"""Self-test of the benchmark itself:  python3 -m pytest perfbench

Runs every workload once traced and once untraced (about a minute) and
checks that each per-layer metric is nonzero on the workload meant to
exercise it, that the output checks are live, and that BENCHMARK.json
matches the metric catalogue.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# zero is the healthy value, or the figure is a difference of two timings
NOT_REQUIRED_NONZERO = {"lp.nonoptimal", "trace.overhead_s"}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


@pytest.fixture(scope="module")
def traced() -> dict[str, tuple[dict, dict]]:
    return {w: result_lines(bench(w, 1)) for w in workloads.WORKLOADS}


def test_traced_runs_are_correct_and_report_every_layer_metric(traced):
    for workload, (details, result) in traced.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, details
        assert details["error_frac"] == 0.0
        assert list(result["metrics"]) == [m[0] for m in layers.CATALOGUE]
        assert set(details["layers"]) == set(result["metrics"])


def test_each_layer_metric_is_nonzero_where_exercised(traced):
    for name, _, _, _, workload, _ in layers.CATALOGUE:
        if workload in traced and name not in NOT_REQUIRED_NONZERO:
            assert traced[workload][1]["metrics"][name]["value"] != 0, f"{name} on {workload}"


def test_no_lp_runs_outside_frontier(traced):
    for workload in ("hold-validate", "sweep"):
        assert traced[workload][1]["metrics"]["lp.solves"]["value"] == 0


def test_untraced_run_reports_end_to_end_metrics():
    details, result = result_lines(bench("sweep", 0))
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in bench_json["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and details["runs"] >= 3
    assert details["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_benchmark_json_lists_the_catalogue():
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench_json["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in layers.CATALOGUE
    ]
    assert [w["name"] for w in bench_json["workloads"]] == list(workloads.WORKLOADS)


def test_perturbed_frontier_fails_the_check(traced, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(ROOT / ".perfbench_work" / "frontier" / "out", out)
    assert all(ok for _, ok, _ in workloads.check_frontier(out))

    exact_csv = out / "reachhold-exact" / "exact.csv"
    rows = exact_csv.read_text().splitlines()
    t, hours, p, method = rows[-1].split(",")
    outer = workloads.read_frontier(out / "reachhold-inner-outer" / "outer.csv")
    rows[-1] = ",".join([t, hours, repr(workloads.p_at(outer, int(t)) + 1.0), method])
    exact_csv.write_text("\n".join(rows) + "\n")
    failed = [name for name, ok, _ in workloads.check_frontier(out) if not ok]
    assert f"exact_le_outer.T{t}" in failed


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
