"""Scenario configuration and deterministic experiment runners.

One JSON config describes one experiment.  Defaults cover every field
except seeds: a config that uses randomness anywhere must say which seed
drives it, or loading fails.  The merged ("effective") config is echoed
into the output directory, and re-running from that echo reproduces
every CSV byte for byte; floats are always written with repr and no
artifact contains a timestamp.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .aggregation import combine, save_combined
from .errors import (
    InvalidConfigurationError,
    NumericalFailureError,
)
from .etp import DEFAULT_DT_MINUTES, DEFAULT_PARAMS, FleetSpec, FleetStepper, sample_fleet, simulate_fleet
from .markov import (
    PopulationState,
    build_grid,
    estimate_transition_matrix,
    save_matrix,
    step_population,
)
from .reachhold import (
    DEFAULT_N_GRID,
    DEFAULT_T_MAX,
    EXACT,
    EXACT_LP_CAP,
    INNER,
    METHODS,
    OUTER,
    OperatingPoint,
    ReachHoldPoint,
    ReachHoldSet,
    characterize,
    config_count,
    config_number,
    default_p_grid,
    delta_p_by_stepping,
    inner_boundary,
    inner_p_at,
    inner_point,
    load_set,
    outer_boundary,
    prune_to_frontier,
    save_set,
    solve_exact,
    sweep,
    write_json,
)
from .validation import (
    apply_plan_micro,
    burn_in,
    compare_traces,
    discretize_plan,
    save_validation_report,
)

SUBCOMMANDS = (
    "build-model",
    "reachhold",
    "aggregate",
    "validate",
    "sweep-setpoint",
    "sweep-precool",
    "selfcheck",
)
SWEEPS = ("sweep-setpoint", "sweep-precool")

# Everything a run depends on has a default here except seeds, which must
# always be spelled out by the caller (config file, preset, or override).
# Numbers the library already names are taken from it.
DEFAULTS: dict = {
    "dt_minutes": DEFAULT_DT_MINUTES,
    "T_amb": 32.0,
    "T_set": 20.0,
    "T_set_new": 22.0,
    "deadband": 1.0,
    "T_max_steps": DEFAULT_T_MAX,
    "P_on_total_kw": 3500.0,
    "grid": asdict(build_grid()),
    "params": asdict(DEFAULT_PARAMS),
    "reachhold": {"methods": ["inner", "outer"], "p_grid_points": DEFAULT_N_GRID, "t_grid": None},
    "fleet": {"n_units": 1000, "heterogeneity": 0.1},
    "validate": {
        "mode": "step",
        "fraction": 1.0,
        "hold_steps": [120, 240, 480],
        "hold_tol_fraction": 0.05,
        "burn_in_steps": 240,
        "horizon": None,
    },
    "sweep": {"new_setpoints": [21.0, 21.5, 22.0]},
    "precool": {"T_set_precool": 19.0},
    "aggregate": {"inputs": []},
}

# Complete study configs keyed to the figures they make data for.  The
# validation presets pin 15% parameter spread: the micro fleet must
# decohere for the bin model's mean-field picture to apply, and 15% gives
# the hold studies seed-robust margin over their acceptance threshold.
PRESETS: dict[str, dict] = {
    "fig2": {
        "fleet": {"n_units": 1000, "heterogeneity": 0.15, "seed": 2024},
        "validate": {
            "mode": "step",
            "fraction": 0.5,
            "horizon": 480,
            "burn_in_steps": 240,
            "selection_seed": 55,
        },
    },
    "fig4": {"reachhold": {"methods": ["inner", "outer"]}},
    "fig5": {"sweep": {"new_setpoints": [21.0, 21.5, 22.0]}},
    "fig6": {"precool": {"T_set_precool": 19.0}},
    "fig7": {
        "fleet": {"n_units": 1000, "heterogeneity": 0.15, "seed": 777},
        "validate": {
            "mode": "blocks",
            "hold_steps": [120, 240, 480],
            "burn_in_steps": 240,
            "selection_seed": 55,
        },
    },
    "selfcheck": {
        "grid": {"T_min": 18.0, "T_max": 24.0, "n_bins": 10},
        "T_max_steps": 60,
    },
}


def _deep_merge(base: dict, override: dict, where: str = "") -> dict:
    """override over base, objects merged keywise; no object may become a
    non-object, and no key is new to base but the seeds."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out and f"{where}{key}" not in ("fleet.seed", "validate.selection_seed"):
            raise InvalidConfigurationError(f"unknown config key {where}{key}")
        if isinstance(out.get(key), dict):
            if not isinstance(value, dict):
                raise InvalidConfigurationError(f"{where}{key} must be an object, got {value!r}")
            out[key] = _deep_merge(out[key], value, f"{where}{key}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def effective_config(user: dict) -> dict:
    """Merge a user config over the defaults (nested dicts merge keywise)."""
    if not isinstance(user, dict):
        raise InvalidConfigurationError("config must be a JSON object")
    # older configs carry an `estimation` section (sample count and seed of
    # a Monte-Carlo matrix build); the matrices are exact, so it sets nothing
    user = {key: value for key, value in user.items() if key != "estimation"}
    return _deep_merge(DEFAULTS, user)


def load_config(path) -> dict:
    def finite(token: str) -> float:
        # json reads NaN, Infinity and overflowing literals as floats
        value = float(token)
        if not np.isfinite(value):
            raise InvalidConfigurationError(f"config {path} holds the non-finite number {token}")
        return value

    try:
        with open(str(path)) as fh:
            user = json.load(fh, parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise InvalidConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return effective_config(user)


def _require_seed(section: dict, key: str, where: str) -> None:
    if key not in section or section[key] is None:
        raise InvalidConfigurationError(
            f"{where} is required; randomness is never seeded implicitly"
        )
    if not isinstance(section[key], int):
        raise InvalidConfigurationError(f"{where} must be an integer, got {section[key]!r}")


def _config_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise InvalidConfigurationError(f"{name} must be a list, got {value!r}")
    return value


def _fleet_spec(cfg: dict, op: OperatingPoint, seed: int) -> FleetSpec:
    """The config's micro fleet at the operating point; FleetSpec checks
    its ranges."""
    fleet = cfg["fleet"]
    return FleetSpec(
        n_units=config_count(fleet.get("n_units"), "fleet.n_units"),
        nominal=op.params,
        heterogeneity=config_number(fleet.get("heterogeneity"), "fleet.heterogeneity"),
        deadband=op.deadband,
        T_amb=op.T_amb,
        T_set=op.T_set,
        seed=seed,
    )


def validate_config(cfg: dict, subcommand: str) -> None:
    """Load-time checks: shapes, numbers, ranges, band containment, and
    explicit seeds for whatever randomness the subcommand will actually
    consume."""
    if subcommand not in SUBCOMMANDS:
        raise InvalidConfigurationError(f"unknown subcommand {subcommand!r}")
    if subcommand == "aggregate":
        inputs = cfg["aggregate"].get("inputs", [])
        if not isinstance(inputs, list) or len(inputs) != 2:
            raise InvalidConfigurationError("aggregate.inputs must list exactly two saved sets")
        return  # pure set algebra: no model build, no randomness

    T_max = config_count(cfg["T_max_steps"], "T_max_steps")
    if T_max < 1:
        raise InvalidConfigurationError(f"T_max_steps must be >= 1, got {T_max}")
    op = OperatingPoint.from_config(cfg)
    if subcommand in ("reachhold", *SWEEPS):
        if config_count(cfg["reachhold"].get("p_grid_points", 0), "reachhold.p_grid_points") < 1:
            raise InvalidConfigurationError("reachhold.p_grid_points must be >= 1")
    if subcommand == "reachhold":
        rh = cfg["reachhold"]
        methods = _config_list(rh.get("methods"), "reachhold.methods")
        if not methods or any(m not in METHODS for m in methods):
            raise InvalidConfigurationError(
                f"reachhold.methods must be a nonempty subset of {METHODS}, got {methods!r}"
            )
        t_grid = rh.get("t_grid")
        if t_grid is not None:
            entries = _config_list(t_grid, "reachhold.t_grid")
            if not entries or any(not 1 <= config_count(t, "reachhold.t_grid entry") <= T_max for t in entries):
                raise InvalidConfigurationError("reachhold.t_grid entries must lie in 1..T_max_steps")
    if subcommand == "validate":
        _require_seed(cfg["fleet"], "seed", "fleet.seed")
        spec = _fleet_spec(cfg, op, cfg["fleet"]["seed"])
        # the micro fleet and the bin model must describe the same load
        connected = spec.n_units * op.params.P_rate
        if abs(connected - op.P_on_total_kw) > 1e-6 * op.P_on_total_kw:
            raise InvalidConfigurationError(
                f"fleet.n_units x params.P_rate = {connected} kW does not match "
                f"P_on_total_kw = {cfg['P_on_total_kw']}"
            )
        v = cfg["validate"]
        _require_seed(v, "selection_seed", "validate.selection_seed")
        if v.get("mode") not in ("step", "blocks"):
            raise InvalidConfigurationError(f"validate.mode must be 'step' or 'blocks', got {v.get('mode')!r}")
        if not 0.0 <= config_number(v.get("fraction"), "validate.fraction") <= 1.0:
            raise InvalidConfigurationError("validate.fraction must lie in [0, 1]")
        if v["mode"] == "blocks":
            holds = _config_list(v.get("hold_steps"), "validate.hold_steps")
            if not holds or any(not 1 <= config_count(t, "validate.hold_steps entry") <= T_max for t in holds):
                raise InvalidConfigurationError("validate.hold_steps must lie in 1..T_max_steps")
            if config_number(v.get("hold_tol_fraction"), "validate.hold_tol_fraction") < 0.0:
                raise InvalidConfigurationError("validate.hold_tol_fraction must be >= 0")
        if config_count(v.get("burn_in_steps", 0), "validate.burn_in_steps") < 1:
            raise InvalidConfigurationError("validate.burn_in_steps must be >= 1")
        horizon = v.get("horizon")
        if horizon is not None and config_count(horizon, "validate.horizon") < 1:
            raise InvalidConfigurationError("validate.horizon must be >= 1 when given")
    if subcommand in SWEEPS:
        _sweep_points(cfg, subcommand)


def resolve_config(
    subcommand: str,
    config_path=None,
    preset: str | None = None,
    methods: list[str] | None = None,
    seed_override: int | None = None,
) -> dict:
    """Assemble and validate the effective config for one invocation."""
    if config_path is not None and preset is not None:
        raise InvalidConfigurationError("pass either --config or --preset, not both")
    if config_path is not None:
        cfg = load_config(config_path)
    elif preset is not None:
        if preset not in PRESETS:
            raise InvalidConfigurationError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        cfg = effective_config(PRESETS[preset])
    elif subcommand == "selfcheck":
        cfg = effective_config(PRESETS["selfcheck"])
    else:
        raise InvalidConfigurationError("a --config file or --preset is required")
    if methods is not None:
        if subcommand != "reachhold":
            raise InvalidConfigurationError("--methods applies to the reachhold subcommand only")
        cfg["reachhold"]["methods"] = list(methods)
    if seed_override is not None:
        cfg["fleet"]["seed"] = int(seed_override)
        cfg["validate"]["selection_seed"] = int(seed_override)
    validate_config(cfg, subcommand)
    return cfg


def write_effective_config(cfg: dict, out_dir) -> Path:
    path = Path(out_dir) / "effective_config.json"
    write_json(cfg, path)
    return path


# every other JSON artifact of a run goes through this name, which the
# benchmark's tracer times apart from write_effective_config
_write_json = write_json


def default_t_grid(T_max: int) -> list[int]:
    ramp = [1, 2, 3, 5, 8, 12, 20, 30, 45, 60, 90, 120, 180, 240, 360, 480]
    grid = [t for t in ramp if t <= T_max]
    if grid and grid[-1] != T_max:
        grid.append(int(T_max))
    return grid or [int(T_max)]


def run_build_model(cfg: dict, out_dir: Path) -> dict[str, str]:
    ch = characterize(OperatingPoint.from_config(cfg), int(cfg["T_max_steps"]))
    artifacts = {}
    for name, tm in (("A", ch.A), ("A_actuated", ch.A_a)):
        path = out_dir / f"{name}.csv"
        save_matrix(tm, path)
        artifacts[name] = str(path)
    x0_path = out_dir / "x0.csv"
    with open(x0_path, "w") as fh:
        fh.write("state,occupancy\n")
        for i, v in enumerate(ch.x_0):
            fh.write(f"{i},{float(v)!r}\n")
    artifacts["x0"] = str(x0_path)
    residual = float(np.abs(ch.A.P @ ch.x_0 - ch.x_0).max())
    model_path = out_dir / "model.json"
    _write_json({"regime": ch.regime, "stationary_residual": residual}, model_path)
    artifacts["model"] = str(model_path)
    return artifacts


def run_reachhold(cfg: dict, out_dir: Path) -> dict[str, str]:
    methods = cfg["reachhold"]["methods"]
    op = OperatingPoint.from_config(cfg)
    T_max = int(cfg["T_max_steps"])
    ch = characterize(op, T_max)
    t_grid = cfg["reachhold"]["t_grid"] or default_t_grid(T_max)
    t_grid = [int(t) for t in t_grid]
    artifacts = {}
    if INNER in methods:
        p_grid = default_p_grid(ch.p_nom_kw, int(cfg["reachhold"]["p_grid_points"]))
        rh = inner_boundary(ch.kernels, ch.x_0, T_max, p_grid, regime=ch.regime)
        path = out_dir / "inner.csv"
        save_set(rh, path)
        artifacts[INNER] = str(path)
    if OUTER in methods:
        rh = outer_boundary(ch.kernels, ch.x_0, np.array(t_grid), ch.regime)
        path = out_dir / "outer.csv"
        save_set(rh, path)
        artifacts[OUTER] = str(path)
    if EXACT in methods:
        n = ch.x_0.size
        t_exact = [t for t in t_grid if t * n <= EXACT_LP_CAP]
        if not t_exact:
            raise InvalidConfigurationError(
                f"every t_grid entry exceeds the exact-LP cap ({EXACT_LP_CAP} variables)"
            )
        vals = [solve_exact(t, ch.kernels, ch.x_0, ch.A, ch.A_a)[0] for t in t_exact]
        # the true boundary is nonincreasing; a running min trims LP noise
        vals = np.minimum.accumulate(vals)
        samples = [
            ReachHoldPoint(P_hold_kw=float(np.clip(v, 0.0, ch.p_nom_kw)), T_hold_steps=t, raw_objective_kw=float(v))
            for t, v in zip(t_exact, vals)
        ]
        rh = ReachHoldSet(points=prune_to_frontier(samples), method=EXACT, regime=ch.regime)
        path = out_dir / "exact.csv"
        save_set(rh, path)
        artifacts[EXACT] = str(path)
    return artifacts


def run_aggregate(cfg: dict, out_dir: Path) -> dict[str, str]:
    first, second = cfg["aggregate"]["inputs"]
    combined = combine(load_set(first), load_set(second))
    path = out_dir / "combined.csv"
    save_combined(combined, path)
    return {"combined": str(path)}


def _config_stepper(cfg: dict, op: OperatingPoint, seed: int) -> FleetStepper:
    """A stepper over the config's fleet, sampled at the operating point."""
    return FleetStepper(sample_fleet(_fleet_spec(cfg, op, seed)), op.dt_minutes)


def run_validate(cfg: dict, out_dir: Path) -> tuple[dict[str, str], bool]:
    """Markov-versus-micro comparison; returns artifacts and whether any
    micro run was degraded by actuation shortfalls."""
    op = OperatingPoint.from_config(cfg)
    T_max = int(cfg["T_max_steps"])
    ch = characterize(op, T_max)
    v = cfg["validate"]
    p_on_total = op.P_on_total_kw
    n_units = int(cfg["fleet"]["n_units"])
    burn_steps = int(v["burn_in_steps"])
    selection_seed = int(v["selection_seed"])
    horizon = int(v["horizon"]) if v.get("horizon") else T_max
    artifacts: dict[str, str] = {}

    if v["mode"] == "step":
        fraction = float(v["fraction"])
        dp = delta_p_by_stepping((fraction * ch.x_0)[None, :], ch.A, ch.A_a, ch.c, ch.x_0, horizon)
        markov = ch.p_nom_kw - dp
        stepper = _config_stepper(cfg, op, int(cfg["fleet"]["seed"]))
        fleet = stepper.fleet
        burn_in(stepper, burn_steps)
        # a step actuates a uniformly random fraction of units (all of
        # them at fraction 1), so it can never run short; per-bin
        # selection is the plan-driven blocks path
        rng = np.random.default_rng(selection_seed)
        switch = rng.choice(n_units, size=round(fraction * n_units), replace=False)
        fleet.T_set = fleet.T_set.copy()
        fleet.T_set[switch] = op.T_set_new
        micro = simulate_fleet(stepper, horizon)
        report = compare_traces(markov, micro, p_on_total)
        save_validation_report(
            report, markov, micro, out_dir / "report.json", out_dir / "traces.csv"
        )
        artifacts["report"] = str(out_dir / "report.json")
        artifacts["traces"] = str(out_dir / "traces.csv")
        return artifacts, report.degraded

    # blocks: one hold study per requested duration, fresh fleet each time
    hold_tol_kw = float(v["hold_tol_fraction"]) * p_on_total
    summary = []
    any_degraded = False
    for T_hold in [int(t) for t in v["hold_steps"]]:
        P_hold = inner_p_at(T_hold, ch.kernels, ch.x_0, T_max)
        ip = inner_point(P_hold, ch.kernels, ch.x_0, T_max)
        u = ip.alpha[:, None] * ch.x_0[None, :]
        block_horizon = min(T_max, T_hold + 60)
        dp = delta_p_by_stepping(u, ch.A, ch.A_a, ch.c, ch.x_0, block_horizon)
        markov = ch.p_nom_kw - dp
        stepper = _config_stepper(cfg, op, int(cfg["fleet"]["seed"]) + T_hold)
        baseline = burn_in(stepper, burn_steps)
        dplan = discretize_plan(u[:block_horizon], n_units)
        run = apply_plan_micro(stepper, dplan, op.grid, op.T_set_new, block_horizon, selection_seed)
        del stepper  # frees this block's fleet before the next one is sampled
        report = compare_traces(
            markov, run.power_kw, p_on_total,
            P_hold_kw=P_hold, T_hold_steps=T_hold, baseline_kw=baseline,
            hold_tol_kw=hold_tol_kw,
            shortfall_events=run.shortfall_events, degraded=run.degraded,
        )
        stem = f"block_{T_hold}"
        save_validation_report(
            report, markov, run.power_kw,
            out_dir / f"{stem}_report.json", out_dir / f"{stem}_traces.csv",
        )
        artifacts[stem] = str(out_dir / f"{stem}_traces.csv")
        any_degraded = any_degraded or report.degraded
        summary.append(
            {
                "T_hold_steps": T_hold,
                "P_hold_kw": P_hold,
                "hold_satisfied_fraction": report.hold_satisfied_fraction,
                "rmse": report.rmse,
                "degraded": report.degraded,
            }
        )
    _write_json({"blocks": summary}, out_dir / "summary.json")
    artifacts["summary"] = str(out_dir / "summary.json")
    return artifacts, any_degraded


def _sweep_points(cfg: dict, subcommand: str) -> tuple[str, list[tuple[str, OperatingPoint]]]:
    """The operating-point field a sweep subcommand varies, and its (CSV
    stem, point) pairs: one per new setpoint, or the baseline and the
    pre-cooled point.  OperatingPoint checks each point; its error names
    the config key the point came from."""
    op = OperatingPoint.from_config(cfg)
    if subcommand == "sweep-setpoint":
        field, key = "T_set_new", "sweep.new_setpoints"
        values = [config_number(t, f"{key} entry") for t in _config_list(cfg["sweep"].get("new_setpoints"), key)]
        if not values:
            raise InvalidConfigurationError(f"{key} must be nonempty")
        stems = [f"frontier_setpoint_{t:g}" for t in values]
        clash = [stem for i, stem in enumerate(stems) if stem in stems[:i]]
        if clash:
            raise InvalidConfigurationError(f"{key} holds two setpoints that would both write {clash[0]}.csv")
    else:
        field, key = "T_set", "precool.T_set_precool"
        values = [op.T_set, config_number(cfg["precool"]["T_set_precool"], key)]
        stems = ["baseline", "precooled"]
    try:
        return field, [(stem, replace(op, **{field: value})) for stem, value in zip(stems, values)]
    except InvalidConfigurationError as exc:
        raise InvalidConfigurationError(f"{key}: {exc}") from exc


def run_sweep(cfg: dict, out_dir: Path, subcommand: str) -> dict[str, str]:
    """Inner frontier at each point of a sweep subcommand, one CSV each,
    and a summary.json listing each point's swept value, P_nom and file."""
    field, points = _sweep_points(cfg, subcommand)
    sets = sweep([op for _, op in points], int(cfg["T_max_steps"]), int(cfg["reachhold"]["p_grid_points"]))
    artifacts = {}
    entries = []
    for (stem, _), rh in zip(points, sets):
        path = out_dir / f"{stem}.csv"
        save_set(rh, path)
        artifacts[stem] = str(path)
        entries.append({field: rh.regime[field], "P_nom_kw": rh.regime["P_nom_kw"], "file": path.name})
    _write_json({"frontiers": entries}, out_dir / "summary.json")
    artifacts["summary"] = str(out_dir / "summary.json")
    return artifacts


def run_selfcheck(cfg: dict, out_dir: Path) -> dict[str, str]:
    """Invariant suite over the configured model; raises on any failure
    after persisting the full report."""
    op = OperatingPoint.from_config(cfg)
    ch = characterize(op, int(cfg["T_max_steps"]))
    n = ch.x_0.size
    rng = np.random.default_rng(0)  # fixed probe controls, part of the check
    checks = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    try:
        for tm in (ch.A, ch.A_a):
            tm.validate(tol=1e-9)
        record("column_stochastic", True, "both matrices within 1e-9")
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        record("column_stochastic", False, str(exc))

    residual = float(np.abs(ch.A.P @ ch.x_0 - ch.x_0).max())
    record("stationarity_residual", residual <= 1e-10, f"residual {residual:.3e}")

    state = PopulationState(x=ch.x_0.copy(), x_a=np.zeros(n))
    worst_mass = 0.0
    for _ in range(20):
        u = rng.uniform(0.0, 1.0, n) * state.x
        state = step_population(state, u, ch.A, ch.A_a)
        worst_mass = max(worst_mass, abs(float(state.x.sum() + state.x_a.sum()) - 1.0))
    record("mass_conservation", worst_mass <= 1e-12, f"worst drift {worst_mass:.3e}")

    try:
        T_short = min(int(cfg["T_max_steps"]), 60)
        rh = inner_boundary(
            ch.kernels, ch.x_0, T_short, default_p_grid(ch.p_nom_kw, 10), regime=ch.regime
        )
        ps = [p.P_hold_kw for p in rh.points]
        record("frontier_monotone", all(a >= b for a, b in zip(ps, ps[1:])), f"{len(ps)} points")
    except Exception as exc:  # noqa: BLE001
        record("frontier_monotone", False, str(exc))

    u = rng.uniform(size=(30, n))
    u = u * (0.7 / u.sum())  # request 70% of the fleet overall
    dplan = discretize_plan(u, 1000)
    per_state = np.abs(dplan.counts.sum(axis=0) - u.sum(axis=0) * 1000)
    record(
        "discretization_fidelity",
        bool((per_state <= 1.0 + 1e-9).all()),
        f"max cumulative count error {per_state.max():.3e} (bound 1 per state, {n} states)",
    )

    A_again = estimate_transition_matrix(op.params, op.grid, op.T_set, op.deadband, op.T_amb, op.dt_minutes)
    record("determinism", bool(np.array_equal(A_again.P, ch.A.P)), "rebuilt matrix matches bitwise")

    all_passed = all(c["passed"] for c in checks)
    path = out_dir / "selfcheck.json"
    _write_json({"checks": checks, "all_passed": all_passed}, path)
    if not all_passed:
        failed = ", ".join(c["name"] for c in checks if not c["passed"])
        raise NumericalFailureError(f"selfcheck failed: {failed}")
    return {"selfcheck": str(path)}


def run(subcommand: str, cfg: dict, out_dir) -> tuple[dict[str, str], bool]:
    """Dispatch one subcommand; returns (artifact paths, degraded flag)."""
    out_dir = Path(out_dir)
    if subcommand == "build-model":
        return run_build_model(cfg, out_dir), False
    if subcommand == "reachhold":
        return run_reachhold(cfg, out_dir), False
    if subcommand == "aggregate":
        return run_aggregate(cfg, out_dir), False
    if subcommand == "validate":
        return run_validate(cfg, out_dir)
    if subcommand in SWEEPS:
        return run_sweep(cfg, out_dir, subcommand), False
    if subcommand == "selfcheck":
        return run_selfcheck(cfg, out_dir), False
    raise InvalidConfigurationError(f"unknown subcommand {subcommand!r}")
