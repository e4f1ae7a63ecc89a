"""tclflex benchmark: end-to-end and per-layer figures for three workloads.

    python3 perfbench/run.py --workload {frontier,hold-validate,sweep}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; tclflex is imported from ./src.
Each workload run is a fresh worker process (perfbench/worker.py) with
BLAS pinned to one thread and program seeds drawn from (--seed, run
index).  Runs repeat until --seconds are used (at least MIN_RUNS of
them), and each figure is the median over the runs.

--trace 0 reports the end-to-end metrics:
  wall_s       time of the workload's `scenario.run` calls, after set-up
  setup_s      time to import tclflex and resolve the workload's configs
               (median of at least MIN_SETUPS processes)
  peak_rss_mb  peak resident memory of the worker process
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of layers.CATALOGUE, from spans around the calls into each
module; trace.overhead_s is the median of traced minus untraced wall_s
over pairs of runs on the same inputs.

Every run's outputs are checked (workloads.CHECKS).  Standard output ends
with two JSON lines: run details (environment, run count, error_frac =
failed/attempted checks, any failed check, and with --trace 1 each
metric's layer and the end-to-end figure it should move), then the
result {"correct", "attempted", "failed", "metrics"}.  Scratch files go
to .perfbench_work/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

MIN_RUNS = 3
MIN_SETUPS = 5
DEADLINE_S = 170.0  # a benchmark invocation must finish within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes for one workload and returns their reports."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path, deadline: float):
        self.cmd = [
            sys.executable, str(Path(__file__).with_name("worker.py")),
            "--root", str(root), "--workload", workload, "--seed", str(seed), "--work-dir", str(work),
        ]
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"), **{v: "1" for v in THREAD_VARS}}
        self.deadline = deadline

    def __call__(self, index: int, *flags: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run could start")
        try:
            proc = subprocess.run(
                self.cmd + ["--index", str(index), *flags], env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {' '.join(flags)} did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "tclflex" / "__init__.py").is_file():
        print(f"no tclflex source under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    run = Runner(root, args.workload, args.seed, work, deadline)

    try:
        reports, traced = [], []
        start = time.monotonic()
        while True:
            # with --trace 1, each traced run repeats the inputs of the
            # untraced run before it, so their difference is the overhead
            trace = args.trace == 1 and len(reports) % 2 == 1
            index = len(reports) // 2 if args.trace else len(reports)
            rep = run(index, *(["--trace"] if trace else []))
            if trace:
                spans = json.loads((work / "spans.json").read_text())
                traced.append(layers.from_spans(spans, rep["artifact_bytes"]))
                rep["traced"] = True
            reports.append(rep)
            elapsed = time.monotonic() - start
            min_runs = 2 if args.trace else MIN_RUNS
            if len(reports) >= min_runs and elapsed * (1 + 1 / len(reports)) > args.seconds:
                break
        setups = [r["setup_s"] for r in reports]
        while args.trace == 0 and len(setups) < MIN_SETUPS:
            setups.append(run(len(setups), "--setup-only")["setup_s"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    checks = [c for r in reports for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    plain = [r for r in reports if not r.get("traced")]
    if args.trace == 0:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    else:
        # median_low keeps counts whole when the number of traced runs is even
        per_layer = {k: statistics.median_low(t[k] for t in traced) for k in traced[0]}
        per_layer["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(reports[::2], reports[1::2])
        )
        metrics = {name: (per_layer[name], unit) for name, unit, *_ in layers.CATALOGUE}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "runs": len(plain),
        "traced_runs": len(traced),
        "wall_s_runs": [r["wall_s"] for r in reports],
        "setup_s_runs": setups,
        "error_frac": len(failed) / len(checks),
        "failed_checks": failed[:20],
        "env": {
            **reports[0]["env"],
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {v: run.env[v] for v in THREAD_VARS},
        },
    }
    if args.trace:
        details["layers"] = {
            name: {"layer": layer, "workload": wl, "moves": moves} for name, _, _, layer, wl, moves in layers.CATALOGUE
        }
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
