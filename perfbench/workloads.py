"""Workload definitions and output checks for the tclflex benchmark.

A workload is a list of steps; each step is one `tclflex.scenario.run`
call (the path the CLI takes) with a config generated from the benchmark
seed.  The program only ever sees the generated config files.

This module imports only the standard library at module level, so the
worker can import it before it starts the set-up clock.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

# The default hold ramp of `tclflex.scenario.default_t_grid`, cut short.
HOLD_RAMP = (1, 2, 3, 5, 8, 12, 20, 30, 45, 60, 90, 120, 180, 240, 360, 480)
OUTER_T_GRID = [t for t in HOLD_RAMP if t <= 120]
# Given explicitly, so a change to the exact-LP size cap does not change
# how much work the workload does.
EXACT_T_GRID = [t for t in HOLD_RAMP if t <= 60]

P_ON_TOTAL_KW = 3500.0
HOLD_VALIDATE_UNITS = 20_000
UNIT_RATING_KW = 3.5  # params.P_rate default
FRONTIER_TOL_REL = 1e-6  # of P_on_total_kw, for the inner <= exact <= outer sandwich
HOLD_FRACTION_MIN = 0.9  # the hold-study acceptance threshold
STATIONARY_RESIDUAL_MAX = 1e-10

WORKLOADS = ("frontier", "hold-validate", "sweep")


def steps(workload: str, seed: int, index: int, out_root: Path) -> list[dict]:
    """The steps of run `index` under benchmark seed `seed`: name,
    subcommand and user config of each.

    Each run of a benchmark invocation draws its own program seeds, so a
    figure that is a median over runs covers several model instances: LP
    solve time depends on the estimated matrices, by up to half again
    between seeds.  Output directories are fixed here, so a step may name
    an earlier step's artifacts as its input (the sweep's aggregate step
    does).
    """
    rng = random.Random(f"{seed}/{index}")

    def _seeds(n: int) -> list[int]:
        return [rng.randrange(2**31) for _ in range(n)]

    if workload == "frontier":
        (est,) = _seeds(1)
        estimation = {"n_samples": 20000, "seed": est}
        return [
            {
                "name": "reachhold-inner-outer",
                "subcommand": "reachhold",
                "config": {
                    "estimation": estimation,
                    "reachhold": {"methods": ["inner", "outer"], "t_grid": OUTER_T_GRID},
                },
            },
            {
                "name": "reachhold-exact",
                "subcommand": "reachhold",
                "config": {
                    "estimation": estimation,
                    "reachhold": {"methods": ["exact"], "t_grid": EXACT_T_GRID},
                },
            },
        ]
    if workload == "hold-validate":
        est, fleet, select = _seeds(3)
        return [
            {
                "name": "validate-blocks",
                "subcommand": "validate",
                "config": {
                    "P_on_total_kw": HOLD_VALIDATE_UNITS * UNIT_RATING_KW,
                    "estimation": {"n_samples": 20000, "seed": est},
                    "fleet": {"n_units": HOLD_VALIDATE_UNITS, "heterogeneity": 0.15, "seed": fleet},
                    "validate": {
                        "mode": "blocks",
                        "hold_steps": [120, 240, 480],
                        "burn_in_steps": 240,
                        "selection_seed": select,
                    },
                },
            }
        ]
    if workload == "sweep":
        est_sp, est_pc, est_v, fleet, select = _seeds(5)
        return [
            {
                "name": "sweep-setpoint",
                "subcommand": "sweep-setpoint",
                "config": {
                    "estimation": {"n_samples": 20000, "seed": est_sp},
                    "sweep": {"new_setpoints": [21.0, 21.5, 22.0]},
                },
            },
            {
                "name": "sweep-precool",
                "subcommand": "sweep-precool",
                "config": {
                    "estimation": {"n_samples": 20000, "seed": est_pc},
                    "precool": {"T_set_precool": 19.0},
                },
            },
            {
                "name": "validate-step",
                "subcommand": "validate",
                "config": {
                    "estimation": {"n_samples": 20000, "seed": est_v},
                    "fleet": {"n_units": 1000, "heterogeneity": 0.15, "seed": fleet},
                    "validate": {
                        "mode": "step",
                        "fraction": 0.5,
                        "horizon": 480,
                        "burn_in_steps": 240,
                        "selection_seed": select,
                    },
                },
            },
            {
                "name": "aggregate",
                "subcommand": "aggregate",
                "config": {
                    "aggregate": {
                        "inputs": [
                            str(out_root / "sweep-setpoint" / "frontier_setpoint_22.csv"),
                            str(out_root / "sweep-precool" / "precooled.csv"),
                        ]
                    }
                },
            },
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------- checks
#
# Every check reads the artifacts a step wrote and recomputes its claim
# without going through tclflex, so a wrong number cannot vouch for itself.


def read_frontier(path: Path, mode: str | None = None) -> list[tuple[int, float]]:
    """(T_hold_steps, P_hold_kW) rows of a frontier CSV; for a combined
    CSV, only the rows of `mode`."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if mode is not None:
        rows = [r for r in rows if r["mode"] == mode]
    return [(int(r["T_hold_steps"]), float(r["P_hold_kW"])) for r in rows]


def p_at(points: list[tuple[int, float]], t: int) -> float:
    """Largest reduction on the frontier held for at least t steps."""
    return max((p for tt, p in points if tt >= t), default=0.0)


def _nonincreasing(points: list[tuple[int, float]], tol: float) -> tuple[bool, str]:
    ts = [t for t, _ in points]
    ps = [p for _, p in points]
    ok = bool(points) and ts == sorted(set(ts)) and all(b <= a + tol for a, b in zip(ps, ps[1:]))
    return ok, f"{len(points)} points"


def check_frontier(out_root: Path) -> list[tuple[str, bool, str]]:
    tol = FRONTIER_TOL_REL * P_ON_TOTAL_KW
    bounds = out_root / "reachhold-inner-outer"
    inner = read_frontier(bounds / "inner.csv")
    outer = read_frontier(bounds / "outer.csv")
    exact = read_frontier(out_root / "reachhold-exact" / "exact.csv")
    results = []
    for label, pts in (("inner", inner), ("exact", exact), ("outer", outer)):
        ok, detail = _nonincreasing(pts, tol)
        results.append((f"{label}_nonincreasing", ok, detail))
    for t in EXACT_T_GRID:
        lo, mid, hi = p_at(inner, t), p_at(exact, t), p_at(outer, t)
        results.append((f"inner_le_exact.T{t}", lo <= mid + tol, f"{lo!r} <= {mid!r}"))
        results.append((f"exact_le_outer.T{t}", mid <= hi + tol, f"{mid!r} <= {hi!r}"))
    return results


def check_hold_validate(out_root: Path) -> list[tuple[str, bool, str]]:
    summary = json.loads((out_root / "validate-blocks" / "summary.json").read_text())
    results = []
    for block in summary["blocks"]:
        t = block["T_hold_steps"]
        frac = block["hold_satisfied_fraction"]
        results.append((f"not_degraded.T{t}", block["degraded"] is False, str(block["degraded"])))
        results.append((f"hold_fraction.T{t}", frac >= HOLD_FRACTION_MIN, f"{frac!r}"))
    return results


def check_stationary(stationary: list[tuple]) -> list[tuple[str, bool, str]]:
    """`stationary` holds (transition matrix, occupancy) for every
    stationary solve the run made."""
    import numpy as np

    results = []
    for i, (P, x) in enumerate(stationary):
        res = float(np.abs(P @ x - x).max())
        results.append((f"stationary_residual.{i}", res <= STATIONARY_RESIDUAL_MAX, f"{res:.3e}"))
    return results


def check_sweep(out_root: Path) -> list[tuple[str, bool, str]]:
    tol = FRONTIER_TOL_REL * P_ON_TOTAL_KW
    results = []
    report = json.loads((out_root / "validate-step" / "report.json").read_text())
    results.append(("step_not_degraded", report["degraded"] is False, str(report["degraded"])))
    pc = out_root / "sweep-precool"
    base = read_frontier(pc / "baseline.csv")
    pre = read_frontier(pc / "precooled.csv")
    for t, p in base:
        results.append((f"precool_ge_baseline.T{t}", p_at(pre, t) >= p - tol, f"{p_at(pre, t)!r} >= {p!r}"))
    union = read_frontier(out_root / "aggregate" / "combined.csv", mode="union")
    agg = json.loads((out_root / "aggregate" / "effective_config.json").read_text())
    for k, path in enumerate(agg["aggregate"]["inputs"]):
        for t, p in read_frontier(Path(path)):
            results.append((f"union_ge_input{k}.T{t}", p_at(union, t) >= p - tol, f"{p_at(union, t)!r} >= {p!r}"))
    return results


CHECKS = {"frontier": check_frontier, "hold-validate": check_hold_validate, "sweep": check_sweep}
