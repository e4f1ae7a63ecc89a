"""Scenario configuration and deterministic experiment runners.

One JSON config describes one experiment.  Defaults cover every field
except seeds: a config that uses randomness anywhere must say which seed
drives it, or loading fails.  Each subcommand has one reader that checks
every key its runner uses and returns the runner's inputs, so no runner
reads the config.  The merged ("effective") config is echoed into the
output directory, and re-running from that echo reproduces every CSV
byte for byte; floats are always written with repr and no artifact
contains a timestamp.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .aggregation import combine, query_p_at_t, save_combined
from .errors import InvalidConfigurationError, NumericalFailureError
from .etp import DEFAULT_DT_MINUTES, DEFAULT_PARAMS, FleetSpec, FleetStepper, TclParams, sample_fleet, simulate_fleet
from .markov import BinGrid, save_matrix
from .reachhold import (
    DEFAULT_N_GRID,
    DEFAULT_T_MAX,
    EXACT,
    EXACT_LP_CAP,
    EXACT_REPLAY_TOL_REL,
    INNER,
    METHODS,
    OUTER,
    OperatingPoint,
    characterize,
    delta_p_by_stepping,
    exact_fits,
    inner_boundary,
    inner_p_at,
    inner_point,
    load_set,
    lp_frontier,
    outer_boundary,
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

# the only config keys no default holds, as section.key
SEED_KEYS = ("fleet.seed", "validate.selection_seed")

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
    "grid": asdict(BinGrid()),
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
}


def _deep_merge(base: dict, override: dict, where: str = "") -> dict:
    """override over base, objects merged keywise; no object may become a
    non-object, and no key is new to base but the seeds."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out and f"{where}{key}" not in SEED_KEYS:
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


def config_number(value, name: str) -> float:
    """A real number read from a config: a finite int or float, not a
    bool.  Anything else raises InvalidConfigurationError naming the key."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise InvalidConfigurationError(f"{name} must be a finite number, got {value!r}")


def config_count(value, name: str) -> int:
    """A count read from a config: a config_number with no fractional
    part.  Anything else raises InvalidConfigurationError rather than
    being truncated."""
    if config_number(value, name).is_integer():
        return int(value)
    raise InvalidConfigurationError(f"{name} must be a whole number, got {value!r}")


def _config_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise InvalidConfigurationError(f"{name} must be a list, got {value!r}")
    return value


def _seed(cfg: dict, key: str) -> int:
    """The seed at one of SEED_KEYS: a nonnegative integer, as numpy's
    generators take, and never a default."""
    section, name = key.split(".")
    value = cfg[section].get(name)
    if value is None:
        raise InvalidConfigurationError(f"{key} is required; randomness is never seeded implicitly")
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InvalidConfigurationError(f"{key} must be a nonnegative integer, got {value!r}")
    return value


def validate_config(cfg: dict, subcommand: str) -> tuple:
    """Load-time checks of every key the subcommand reads: shapes, numbers,
    ranges, band containment, and explicit seeds for whatever randomness
    it will actually consume.  Returns the inputs of its runner."""
    if subcommand not in SUBCOMMANDS:
        raise InvalidConfigurationError(f"unknown subcommand {subcommand!r}")
    return SUBCOMMANDS[subcommand][0](cfg)


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
    else:
        raise InvalidConfigurationError("a --config file or --preset is required")
    if methods is not None:
        if subcommand != "reachhold":
            raise InvalidConfigurationError("--methods applies to the reachhold subcommand only")
        cfg["reachhold"]["methods"] = list(methods)
    if seed_override is not None:
        for key in SEED_KEYS:
            section, name = key.split(".")
            cfg[section][name] = int(seed_override)
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
    return [t for t in ramp if t < T_max] + [T_max]


def _read_model(cfg: dict) -> tuple[OperatingPoint, int]:
    """The operating point a config describes and T_max_steps, the inputs
    of build-model, which every other model run extends."""
    T_max = config_count(cfg["T_max_steps"], "T_max_steps")
    if T_max < 1:
        raise InvalidConfigurationError(f"T_max_steps must be >= 1, got {T_max}")
    g = cfg["grid"]
    op = OperatingPoint(
        params=TclParams(**{k: config_number(v, f"params.{k}") for k, v in cfg["params"].items()}),
        grid=BinGrid(
            config_number(g["T_min"], "grid.T_min"),
            config_number(g["T_max"], "grid.T_max"),
            config_count(g["n_bins"], "grid.n_bins"),
        ),
        **{name: config_number(cfg[name], name) for name in OperatingPoint.SCALARS},
    )
    return op, T_max


def _read_n_grid(cfg: dict) -> int:
    n_grid = config_count(cfg["reachhold"].get("p_grid_points"), "reachhold.p_grid_points")
    if n_grid < 1:
        raise InvalidConfigurationError("reachhold.p_grid_points must be >= 1")
    return n_grid


def run_build_model(out_dir: Path, op: OperatingPoint, T_max: int) -> tuple[dict[str, str], bool]:
    ch = characterize(op, T_max)
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
    return artifacts, False


def _read_reachhold(cfg: dict) -> tuple:
    """build-model's inputs, the methods, the holds to bound (t_grid sorted
    and without repeats, as the exact route's running minimum along T
    needs, or the default ramp) and the inner frontier's grid size."""
    op, T_max = _read_model(cfg)
    n_grid = _read_n_grid(cfg)
    rh = cfg["reachhold"]
    methods = _config_list(rh.get("methods"), "reachhold.methods")
    if not methods or any(m not in METHODS for m in methods):
        raise InvalidConfigurationError(
            f"reachhold.methods must be a nonempty subset of {METHODS}, got {methods!r}"
        )
    entries = default_t_grid(T_max) if rh.get("t_grid") is None else _config_list(rh["t_grid"], "reachhold.t_grid")
    t_grid = sorted({config_count(t, "reachhold.t_grid entry") for t in entries})
    if not t_grid or not 1 <= t_grid[0] <= t_grid[-1] <= T_max:
        raise InvalidConfigurationError("reachhold.t_grid entries must lie in 1..T_max_steps")
    if EXACT in methods and not exact_fits(t_grid[0], op.grid.n_states):
        raise InvalidConfigurationError(
            f"every reachhold.t_grid entry exceeds the exact-LP cap ({EXACT_LP_CAP} variables)"
        )
    return op, T_max, methods, t_grid, n_grid


def run_reachhold(
    out_dir: Path, op: OperatingPoint, T_max: int, methods: list[str], t_grid: list[int], n_grid: int
) -> tuple[dict[str, str], bool]:
    """Every requested frontier, written only once they keep inner <= exact
    <= outer at each hold both bound (exact's holds are those under the
    cap), within the replay tolerance; frontiers that cross raise
    NumericalFailureError and write nothing."""
    ch = characterize(op, T_max)
    sets = {}
    if INNER in methods:
        sets[INNER] = inner_boundary(ch, n_grid)
    if OUTER in methods:
        sets[OUTER] = outer_boundary(ch, np.array(t_grid))
    t_exact = [t for t in t_grid if exact_fits(t, ch.x_0.size)]
    if EXACT in methods:
        vals = [solve_exact(t, ch)[0] for t in t_exact]
        # the true boundary is nonincreasing; a running min trims LP noise
        sets[EXACT] = lp_frontier(ch, t_exact, np.minimum.accumulate(vals), EXACT)
    tol = EXACT_REPLAY_TOL_REL * op.P_on_total_kw
    for lower, upper in ((INNER, EXACT), (EXACT, OUTER), (INNER, OUTER)):
        if lower in sets and upper in sets:
            for t in t_exact if EXACT in (lower, upper) else t_grid:
                low, up = query_p_at_t(sets[lower], t), query_p_at_t(sets[upper], t)
                if low > up + tol:
                    raise NumericalFailureError(f"{lower} frontier exceeds {upper} at T={t}: {low!r} > {up!r} kW")
    artifacts = {}
    for method, rh in sets.items():
        path = out_dir / f"{method}.csv"
        save_set(rh, path)
        artifacts[method] = str(path)
    return artifacts, False


def _read_aggregate(cfg: dict) -> list:
    """The two saved sets to combine: pure set algebra, so no model build
    and no randomness."""
    inputs = cfg["aggregate"].get("inputs", [])
    if not isinstance(inputs, list) or len(inputs) != 2 or not all(isinstance(p, str) for p in inputs):
        raise InvalidConfigurationError(f"aggregate.inputs must list two saved sets' paths, got {inputs!r}")
    return inputs


def run_aggregate(out_dir: Path, first, second) -> tuple[dict[str, str], bool]:
    set1, set2 = load_set(first), load_set(second)
    path = out_dir / "combined.csv"
    save_combined(set1, set2, combine(set1, set2), path)
    return {"combined": str(path)}, False


def _read_validate(cfg: dict) -> tuple:
    """build-model's inputs, the seeded micro fleet, the selection seed,
    burn-in length and step horizon, the step's fraction, and the blocks'
    holds (None in step mode) and hold tolerance in kW."""
    op, T_max = _read_model(cfg)
    fleet_seed, selection_seed = (_seed(cfg, key) for key in SEED_KEYS)
    fleet, v = cfg["fleet"], cfg["validate"]
    # FleetSpec checks its own ranges
    spec = FleetSpec(
        n_units=config_count(fleet.get("n_units"), "fleet.n_units"), nominal=op.params,
        heterogeneity=config_number(fleet.get("heterogeneity"), "fleet.heterogeneity"),
        deadband=op.deadband, T_amb=op.T_amb, T_set=op.T_set, seed=fleet_seed,
    )
    # the micro fleet and the bin model must describe the same load
    connected = spec.n_units * op.params.P_rate
    if abs(connected - op.P_on_total_kw) > 1e-6 * op.P_on_total_kw:
        raise InvalidConfigurationError(
            f"fleet.n_units x params.P_rate = {connected} kW does not match "
            f"P_on_total_kw = {op.P_on_total_kw}"
        )
    if v.get("mode") not in ("step", "blocks"):
        raise InvalidConfigurationError(f"validate.mode must be 'step' or 'blocks', got {v.get('mode')!r}")
    fraction = config_number(v.get("fraction"), "validate.fraction")
    if not 0.0 <= fraction <= 1.0:
        raise InvalidConfigurationError("validate.fraction must lie in [0, 1]")
    holds = hold_tol_kw = None
    if v["mode"] == "blocks":
        entries = _config_list(v.get("hold_steps"), "validate.hold_steps")
        holds = [config_count(t, "validate.hold_steps entry") for t in entries]
        if not holds or any(not 1 <= t <= T_max for t in holds):
            raise InvalidConfigurationError("validate.hold_steps must lie in 1..T_max_steps")
        if len(set(holds)) < len(holds):
            raise InvalidConfigurationError(f"validate.hold_steps must be distinct, got {holds}")
        hold_tol = config_number(v.get("hold_tol_fraction"), "validate.hold_tol_fraction")
        if hold_tol < 0.0:
            raise InvalidConfigurationError("validate.hold_tol_fraction must be >= 0")
        hold_tol_kw = hold_tol * op.P_on_total_kw
    burn_steps = config_count(v.get("burn_in_steps"), "validate.burn_in_steps")
    if burn_steps < 1:
        raise InvalidConfigurationError("validate.burn_in_steps must be >= 1")
    horizon = T_max if v.get("horizon") is None else config_count(v["horizon"], "validate.horizon")
    if horizon < 1:
        raise InvalidConfigurationError("validate.horizon must be >= 1 when given")
    return op, T_max, spec, selection_seed, burn_steps, horizon, fraction, holds, hold_tol_kw


def run_validate(
    out_dir: Path, op: OperatingPoint, T_max: int, spec: FleetSpec, selection_seed: int, burn_steps: int,
    horizon: int, fraction: float, holds: list[int] | None, hold_tol_kw: float | None,
) -> tuple[dict[str, str], bool]:
    """Markov-versus-micro comparison, a step or (given holds) one block
    per hold; returns artifacts and whether any micro run was degraded by
    actuation shortfalls."""
    ch = characterize(op, T_max)
    artifacts: dict[str, str] = {}

    if holds is None:
        dp = delta_p_by_stepping((fraction * ch.x_0)[None, :], ch, horizon)
        markov = ch.p_nom_kw - dp
        stepper = FleetStepper(sample_fleet(spec), op.dt_minutes)
        burn_in(stepper, burn_steps)
        # a step actuates a uniformly random fraction of units (all of
        # them at fraction 1), so it can never run short; per-bin
        # selection is the plan-driven blocks path
        rng = np.random.default_rng(selection_seed)
        switch = rng.choice(spec.n_units, size=round(fraction * spec.n_units), replace=False)
        stepper.fleet.T_set[switch] = op.T_set_new
        micro = simulate_fleet(stepper, horizon)
        report = compare_traces(markov, micro, op.P_on_total_kw)
        report.update(shortfall_events=[], degraded=False)
        save_validation_report(
            report, markov, micro, out_dir / "report.json", out_dir / "traces.csv"
        )
        artifacts["report"] = str(out_dir / "report.json")
        artifacts["traces"] = str(out_dir / "traces.csv")
        return artifacts, False

    # blocks: one hold study per requested duration, fresh fleet each time
    summary = []
    any_degraded = False
    for T_hold in holds:
        P_hold = inner_p_at(T_hold, ch)
        ip = inner_point(P_hold, ch)
        u = ip.alpha[:, None] * ch.x_0[None, :]
        block_horizon = min(T_max, T_hold + 60)
        dp = delta_p_by_stepping(u, ch, block_horizon)
        markov = ch.p_nom_kw - dp
        stepper = FleetStepper(sample_fleet(replace(spec, seed=spec.seed + T_hold)), op.dt_minutes)
        baseline = burn_in(stepper, burn_steps)
        counts = discretize_plan(u[:block_horizon], spec.n_units)
        run = apply_plan_micro(stepper, counts, op.grid, op.T_set_new, block_horizon, selection_seed)
        del stepper  # frees this block's fleet before the next one is sampled
        report = compare_traces(
            markov, run.power_kw, op.P_on_total_kw,
            P_hold_kw=P_hold, T_hold_steps=T_hold, baseline_kw=baseline,
            hold_tol_kw=hold_tol_kw,
        )
        report.update(shortfall_events=run.shortfall_events, degraded=run.degraded)
        stem = f"block_{T_hold}"
        save_validation_report(
            report, markov, run.power_kw,
            out_dir / f"{stem}_report.json", out_dir / f"{stem}_traces.csv",
        )
        artifacts[stem] = str(out_dir / f"{stem}_traces.csv")
        any_degraded = any_degraded or run.degraded
        summary.append(
            {
                "T_hold_steps": T_hold,
                "P_hold_kw": P_hold,
                "hold_satisfied_fraction": report["hold_satisfied_fraction"],
                "rmse": report["rmse"],
                "degraded": run.degraded,
            }
        )
    _write_json({"blocks": summary}, out_dir / "summary.json")
    artifacts["summary"] = str(out_dir / "summary.json")
    return artifacts, any_degraded


def _sweep_inputs(cfg: dict, op: OperatingPoint, T_max: int, field: str, key: str, stems: list, values: list) -> tuple:
    """T_max, the inner grid size, the swept field and the (CSV stem,
    point) pairs, op with its `field` set to each value.  OperatingPoint
    checks each point; its error names the config key the value came from."""
    try:
        points = [(stem, replace(op, **{field: value})) for stem, value in zip(stems, values)]
    except InvalidConfigurationError as exc:
        raise InvalidConfigurationError(f"{key}: {exc}") from exc
    return T_max, _read_n_grid(cfg), field, points


def _read_setpoint_sweep(cfg: dict) -> tuple:
    """A sweep's inputs, one point per new setpoint."""
    op, T_max = _read_model(cfg)
    key = "sweep.new_setpoints"
    values = [config_number(t, f"{key} entry") for t in _config_list(cfg["sweep"].get("new_setpoints"), key)]
    if not values:
        raise InvalidConfigurationError(f"{key} must be nonempty")
    stems = [f"frontier_setpoint_{t:g}" for t in values]
    clash = [stem for i, stem in enumerate(stems) if stem in stems[:i]]
    if clash:
        raise InvalidConfigurationError(f"{key} holds two setpoints that would both write {clash[0]}.csv")
    return _sweep_inputs(cfg, op, T_max, "T_set_new", key, stems, values)


def _read_precool_sweep(cfg: dict) -> tuple:
    """A sweep's inputs, the baseline and the pre-cooled point."""
    op, T_max = _read_model(cfg)
    key = "precool.T_set_precool"
    values = [op.T_set, config_number(cfg["precool"]["T_set_precool"], key)]
    return _sweep_inputs(cfg, op, T_max, "T_set", key, ["baseline", "precooled"], values)


def run_sweep(
    out_dir: Path, T_max: int, n_grid: int, field: str, points: list[tuple[str, OperatingPoint]]
) -> tuple[dict[str, str], bool]:
    """Inner frontier at each (CSV stem, point) of a sweep, one CSV each,
    and a summary.json listing each point's swept field, P_nom and file."""
    sets = sweep([op for _, op in points], T_max, n_grid)
    artifacts = {}
    entries = []
    for (stem, _), rh in zip(points, sets):
        path = out_dir / f"{stem}.csv"
        save_set(rh, path)
        artifacts[stem] = str(path)
        entries.append({field: rh.regime[field], "P_nom_kw": rh.regime["P_nom_kw"], "file": path.name})
    _write_json({"frontiers": entries}, out_dir / "summary.json")
    artifacts["summary"] = str(out_dir / "summary.json")
    return artifacts, False


# each subcommand's reader checks every config key its runner uses and
# returns the runner's inputs, which follow the output directory
SUBCOMMANDS = {
    "build-model": (_read_model, run_build_model),
    "reachhold": (_read_reachhold, run_reachhold),
    "aggregate": (_read_aggregate, run_aggregate),
    "validate": (_read_validate, run_validate),
    "sweep-setpoint": (_read_setpoint_sweep, run_sweep),
    "sweep-precool": (_read_precool_sweep, run_sweep),
}


def run(subcommand: str, cfg: dict, out_dir) -> tuple[dict[str, str], bool]:
    """Read the config for one subcommand and run it; returns (artifact
    paths, degraded flag)."""
    inputs = validate_config(cfg, subcommand)
    return SUBCOMMANDS[subcommand][1](Path(out_dir), *inputs)
