"""Per-layer metrics computed from the spans of a traced run.

CATALOGUE lists every per-layer metric with its unit, which direction is
better, the module (layer) it measures, the workload meant to exercise it
and the end-to-end metric there that it should move.  BENCHMARK.json's
`per_layer` list is the first three columns.
"""

from __future__ import annotations

from workloads import EXACT_T_GRID, OUTER_T_GRID

# Per-solve LP figures are kept for holds of 5 steps and longer; the
# shorter solves take milliseconds and still count in lp.solve_s/lp.solves.
PER_SOLVE_MIN_T = 5
PER_SOLVE = [("outer", t) for t in OUTER_T_GRID if t >= PER_SOLVE_MIN_T] + [
    ("exact", t) for t in EXACT_T_GRID if t >= PER_SOLVE_MIN_T
]

_F, _H, _S = "frontier", "hold-validate", "sweep"

# (name, unit, better, layer, workload that exercises it, end-to-end
# metric there that it should move)
CATALOGUE: list[tuple[str, str, str, str, str, str]] = [
    ("lp.solve_s", "s", "lower", "lp", _F, "wall_s"),
    ("lp.solves", "count", "lower", "lp", _F, "wall_s; 0 on the other workloads"),
    ("lp.nonoptimal", "count", "lower", "lp", _F, "wall_s; 0 on a healthy run"),
]
for _method, _t in PER_SOLVE:
    _tag = f"{_method}.T{_t}"
    CATALOGUE += [
        (f"lp.solve_s.{_tag}", "s", "lower", "lp", _F, "wall_s"),
        (f"lp.n_vars.{_tag}", "count", "lower", "lp", _F, "wall_s, peak_rss_mb"),
        (f"lp.n_rows.{_tag}", "count", "lower", "lp", _F, "wall_s, peak_rss_mb"),
        (f"lp.nnz.{_tag}", "count", "lower", "lp", _F, "wall_s, peak_rss_mb"),
        (f"lp.dense_mb.{_tag}", "MB", "lower", "lp (computed from array shapes)", _F, "peak_rss_mb"),
    ]
CATALOGUE += [
    ("reachhold.outer_build_s", "s", "lower", "reachhold", _F, "wall_s, peak_rss_mb"),
    ("reachhold.exact_build_s", "s", "lower", "reachhold", _F, "wall_s, peak_rss_mb"),
    ("etp.stepper_setup_s", "s", "lower", "etp", _H, "wall_s"),
    ("etp.steppers", "count", "lower", "etp", _H, "wall_s"),
    ("etp.setup_us_per_unit", "us", "lower", "etp", _H, "wall_s"),
    ("etp.unit_steps", "count", "lower", "etp", _H, "wall_s"),
    ("etp.advance_ns_per_unit_step", "ns", "lower", "etp", _H, "wall_s (and on sweep)"),
    ("validation.burn_in_s", "s", "lower", "validation", _H, "wall_s"),
    ("validation.apply_plan_s", "s", "lower", "validation", _H, "wall_s"),
    ("validation.select_s", "s", "lower", "validation", _H, "wall_s"),
    ("validation.selected_over_requested", "ratio", "higher", "validation", _H, "wall_s"),
    ("validation.shortfall_events", "count", "lower", "validation", _H, "wall_s"),
    ("reachhold.inner_p_at_s", "s", "lower", "reachhold", _H, "wall_s"),
    ("markov.estimate_s", "s", "lower", "markov", _S, "wall_s"),
    ("markov.estimate_calls", "count", "lower", "markov", _S, "wall_s"),
    ("markov.stationary_s", "s", "lower", "markov", _S, "wall_s"),
    ("markov.stationary_iters", "count", "lower", "markov", _S, "wall_s"),
    ("reachhold.characterize_s", "s", "lower", "reachhold", _S, "wall_s"),
    ("reachhold.kernels_s", "s", "lower", "reachhold", _S, "wall_s"),
    ("reachhold.inner_boundary_s", "s", "lower", "reachhold", _S, "wall_s"),
    ("reachhold.inner_point_calls", "count", "lower", "reachhold", _S, "wall_s"),
    ("aggregation.combine_s", "s", "lower", "aggregation", _S, "wall_s"),
    ("aggregation.load_s", "s", "lower", "aggregation", _S, "wall_s"),
    ("scenario.save_s", "s", "lower", "scenario", _S, "wall_s"),
    ("scenario.artifact_bytes", "bytes", "lower", "scenario", _S, "wall_s"),
    ("trace.overhead_s", "s", "lower", "benchmark tracing", "any", "traced minus untraced wall_s"),
]


def _durations(spans: list[list]) -> list[float]:
    return [s[2] - s[1] for s in spans]


def _self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children (and the tracer's
    bookkeeping for them) cover."""
    self_t = _durations(spans)
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= (s[2] - s[1]) + s[5]
    return self_t


def from_spans(spans: list[list], artifact_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced workload run, except
    trace.overhead_s, which needs an untraced run to compare with."""
    dur = _durations(spans)
    self_t = _self_times(spans)

    def total(name: str, times=dur) -> float:
        return sum(t for s, t in zip(spans, times) if s[0] == name)

    def count(name: str) -> int:
        return sum(1 for s in spans if s[0] == name)

    def info_sum(name: str, key: str) -> int:
        return sum(s[4][key] for s in spans if s[0] == name)

    m: dict[str, float] = {
        "lp.solve_s": total("lp.solve"),
        "lp.solves": count("lp.solve"),
        "lp.nonoptimal": sum(1 for s in spans if s[0] == "lp.solve" and s[4]["status"] != "optimal"),
    }
    per_solve: dict[str, float] = {}
    for s, t in zip(spans, dur):
        if s[0] != "lp.solve":
            continue
        parent = spans[s[3]][4]
        tag = f"{parent['method']}.T{parent['T']}"
        info = s[4]
        per_solve[f"lp.solve_s.{tag}"] = per_solve.get(f"lp.solve_s.{tag}", 0.0) + t
        per_solve[f"lp.n_vars.{tag}"] = info["n_vars"]
        per_solve[f"lp.n_rows.{tag}"] = info["n_rows"]
        per_solve[f"lp.nnz.{tag}"] = info["nnz"]
        per_solve[f"lp.dense_mb.{tag}"] = info["dense_bytes"] / 1e6
    for method, t in PER_SOLVE:
        tag = f"{method}.T{t}"
        for key in ("solve_s", "n_vars", "n_rows", "nnz", "dense_mb"):
            m[f"lp.{key}.{tag}"] = per_solve.get(f"lp.{key}.{tag}", 0)

    units_built = info_sum("etp.FleetStepper", "units")
    unit_steps = info_sum("etp.advance", "units")
    requested = info_sum("validation.apply_plan_micro", "requested")
    m.update(
        {
            "reachhold.outer_build_s": total("reachhold.solve_outer", self_t),
            "reachhold.exact_build_s": total("reachhold.solve_exact", self_t),
            "etp.stepper_setup_s": total("etp.FleetStepper"),
            "etp.steppers": count("etp.FleetStepper"),
            "etp.setup_us_per_unit": 1e6 * total("etp.FleetStepper") / units_built if units_built else 0.0,
            "etp.unit_steps": unit_steps,
            "etp.advance_ns_per_unit_step": 1e9 * total("etp.advance") / unit_steps if unit_steps else 0.0,
            "validation.burn_in_s": total("validation.burn_in"),
            "validation.apply_plan_s": total("validation.apply_plan_micro"),
            "validation.select_s": total("validation.apply_plan_micro", self_t),
            "validation.selected_over_requested": (
                info_sum("validation.apply_plan_micro", "selected") / requested if requested else 0.0
            ),
            "validation.shortfall_events": info_sum("validation.apply_plan_micro", "shortfall_events"),
            "markov.estimate_s": total("markov.estimate_transition_matrix"),
            "markov.estimate_calls": count("markov.estimate_transition_matrix"),
            "markov.stationary_s": total("markov.stationary_distribution"),
            "markov.stationary_iters": info_sum("markov.stationary_distribution", "iterations"),
            "reachhold.characterize_s": total("reachhold.characterize"),
            "reachhold.kernels_s": total("reachhold.response_kernels"),
            "reachhold.inner_boundary_s": total("reachhold.inner_boundary"),
            "reachhold.inner_point_calls": count("reachhold.inner_point"),
            "reachhold.inner_p_at_s": total("reachhold.inner_p_at"),
            "aggregation.combine_s": total("aggregation.combine"),
            "aggregation.load_s": total("aggregation.load_set"),
            "scenario.save_s": total("scenario.save"),
            "scenario.artifact_bytes": artifact_bytes,
        }
    )
    return m
