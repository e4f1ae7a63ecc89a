"""One workload run in a fresh process; prints one JSON report line.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N
        --index I --work-dir DIR [--trace] [--setup-only]

Writes the configs of run I of the workload to DIR/configs, then reports
set-up time (importing tclflex and resolving those configs), wall time of
the steps, this process's peak RSS, and the output checks.  With --trace the per-module spans go to DIR/spans.json.
run.py starts this script with the environment it needs (PYTHONPATH and
single-threaded BLAS); it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import tracing
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    configs = args.work_dir / "configs"
    out_root = args.work_dir / "out"
    plan = workloads.steps(args.workload, args.seed, args.index, out_root)
    shutil.rmtree(configs, ignore_errors=True)
    configs.mkdir(parents=True)
    for step in plan:
        (configs / f"{step['name']}.json").write_text(json.dumps(step["config"], indent=2))

    t0 = time.perf_counter()
    import tclflex
    from tclflex import errors, reachhold, scenario

    cfgs = [scenario.resolve_config(s["subcommand"], config_path=configs / f"{s['name']}.json") for s in plan]
    setup_s = time.perf_counter() - t0

    src = (args.root / "src").resolve()
    if src not in Path(tclflex.__file__).resolve().parents:
        print(f"tclflex was imported from {tclflex.__file__}, not from {src}", file=sys.stderr)
        return 2
    report = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    # Keep (matrix, occupancy) of every stationary solve for the residual
    # check; at most six calls per run, so the cost is nil.
    stationary: list[tuple] = []
    solve_stationary = reachhold.stationary_distribution

    def capture_stationary(tm, *a, **kw):
        res = solve_stationary(tm, *a, **kw)
        stationary.append((tm.P, res.x))
        return res

    reachhold.stationary_distribution = capture_stationary
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    shutil.rmtree(out_root, ignore_errors=True)
    checks = []
    t1 = time.perf_counter()
    for step, cfg in zip(plan, cfgs):
        out = out_root / step["name"]
        out.mkdir(parents=True)
        try:
            scenario.write_effective_config(cfg, out)
            _, degraded = scenario.run(step["subcommand"], cfg, out)
            checks.append((f"run.{step['name']}", not degraded, "degraded" if degraded else ""))
        except errors.TclFlexError as exc:
            checks.append((f"run.{step['name']}", False, f"{type(exc).__name__}: {exc}"))
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(args.work_dir / "spans.json")

    checks += workloads.check_stationary(stationary)
    try:
        checks += workloads.CHECKS[args.workload](out_root)
    except (OSError, KeyError, ValueError) as exc:
        checks.append(("outputs_readable", False, f"{type(exc).__name__}: {exc}"))

    import numpy
    import scipy

    report.update(
        {
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "artifact_bytes": sum(p.stat().st_size for p in out_root.rglob("*") if p.is_file()),
            "checks": checks,
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
