"""End-to-end tests of the command-line interface and scenario layer."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tclflex.reachhold
import tclflex.scenario
from tclflex.cli import EXIT_CONFIG, EXIT_DEGRADED, EXIT_NUMERICAL, EXIT_OK, main
from tclflex.markov import load_matrix
from tclflex.reachhold import load_set
from tclflex.scenario import DEFAULTS, PRESETS, effective_config, resolve_config, validate_config

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "grid": {"T_min": 18.0, "T_max": 24.0, "n_bins": 10},
    "T_max_steps": 30,
    "reachhold": {"methods": ["inner", "outer", "exact"], "p_grid_points": 4, "t_grid": [5, 10]},
}

# pinned to a run that demonstrably exceeds the 5% shortfall threshold:
# 100 units spread over 80 states cannot honor per-bin requests
DEGRADING_BLOCKS = {
    "T_max_steps": 60,
    "P_on_total_kw": 350.0,
    "fleet": {"n_units": 100, "heterogeneity": 0.15, "seed": 42},
    "validate": {"mode": "blocks", "hold_steps": [10], "burn_in_steps": 60, "selection_seed": 9},
}


# each number is one json reads as non-finite; the validate cases carry
# the seeds that subcommand requires
NONFINITE_CONFIGS = [
    pytest.param("build-model", '{"T_max_steps": Infinity}', id="T_max_steps"),
    pytest.param("build-model", '{"grid": {"n_bins": Infinity}}', id="grid.n_bins"),
    pytest.param("reachhold", '{"reachhold": {"p_grid_points": Infinity}}', id="reachhold.p_grid_points"),
    pytest.param("reachhold", '{"reachhold": {"t_grid": [5, Infinity]}}', id="reachhold.t_grid"),
    pytest.param(
        "validate",
        '{"fleet": {"n_units": Infinity, "seed": 1}, "validate": {"selection_seed": 1}}',
        id="fleet.n_units",
    ),
    pytest.param(
        "validate",
        '{"fleet": {"seed": 1}, "validate": {"burn_in_steps": Infinity, "selection_seed": 1}}',
        id="validate.burn_in_steps",
    ),
    pytest.param("build-model", '{"T_amb": Infinity}', id="T_amb-inf"),
    pytest.param("build-model", '{"T_amb": NaN}', id="T_amb-nan"),
    pytest.param("build-model", '{"T_amb": 1e999}', id="T_amb-overflow"),
    pytest.param("build-model", '{"dt_minutes": Infinity}', id="dt_minutes"),
    pytest.param("build-model", '{"params": {"C_a": Infinity}}', id="params.C_a"),
]

# each count is fractional, and would have been truncated; the validate
# cases carry the seeds that subcommand requires
FLEET_SEED = {"seed": 1}
FRACTIONAL_COUNTS = [
    pytest.param("build-model", {"grid": {"n_bins": 40.7}}, id="grid.n_bins"),
    pytest.param("build-model", {"T_max_steps": 60.9}, id="T_max_steps"),
    pytest.param("reachhold", {"reachhold": {"p_grid_points": 4.5}}, id="reachhold.p_grid_points"),
    pytest.param("reachhold", {"reachhold": {"t_grid": [5, 10.5]}}, id="reachhold.t_grid"),
    pytest.param("sweep-setpoint", {"reachhold": {"p_grid_points": 4.5}}, id="sweep.p_grid_points"),
    pytest.param(
        "validate", {"fleet": {"n_units": 1000.5, "seed": 1}, "validate": {"selection_seed": 1}}, id="fleet.n_units"
    ),
    pytest.param(
        "validate",
        {"fleet": FLEET_SEED, "validate": {"selection_seed": 1, "burn_in_steps": 60.5}},
        id="validate.burn_in_steps",
    ),
    pytest.param(
        "validate",
        {"fleet": FLEET_SEED, "validate": {"selection_seed": 1, "mode": "blocks", "hold_steps": [120, 240.5]}},
        id="validate.hold_steps",
    ),
    pytest.param(
        "validate",
        {"fleet": FLEET_SEED, "validate": {"selection_seed": 1, "horizon": 100.5}},
        id="validate.horizon",
    ),
]

# each value is of the wrong type or range for its key, or makes an
# operating point whose band leaves the grid, or exact holds past the
# LP cap, or two setpoints or holds that share a file name, and must be
# refused when the config loads, naming its key; validate cases carry
# the seeds that subcommand requires
VALIDATE_SEEDS = {"fleet": {"seed": 1}, "validate": {"selection_seed": 1}}
BLOCKS = {"selection_seed": 1, "mode": "blocks"}
MISTYPED_CONFIGS = [
    pytest.param("build-model", {"T_amb": None}, "T_amb", id="T_amb-null"),
    pytest.param("build-model", {"grid": {"T_min": None}}, "grid.T_min", id="grid.T_min-null"),
    pytest.param("build-model", {"dt_minutes": "1"}, "dt_minutes", id="dt_minutes-string"),
    pytest.param("build-model", {"params": {"Q_m": True}}, "params.Q_m", id="params.Q_m-bool"),
    pytest.param("build-model", {"T_max_steps": 10**400}, "T_max_steps", id="T_max_steps-beyond-float"),
    pytest.param("build-model", {"deadband": 0}, "deadband", id="deadband-zero"),
    pytest.param("reachhold", {"deadband": -1}, "deadband", id="deadband-negative"),
    pytest.param("reachhold", {"reachhold": {"t_grid": 5}}, "reachhold.t_grid", id="reachhold.t_grid-scalar"),
    pytest.param("reachhold", {"reachhold": {"methods": 5}}, "reachhold.methods", id="reachhold.methods-scalar"),
    pytest.param(
        "reachhold", {"reachhold": {"methods": ["exact"], "t_grid": [480]}}, "reachhold.t_grid", id="reachhold.t_grid-cap"
    ),
    pytest.param(
        "sweep-setpoint", {"sweep": {"new_setpoints": 21}}, "sweep.new_setpoints", id="sweep.new_setpoints-scalar"
    ),
    pytest.param(
        "sweep-setpoint", {"sweep": {"new_setpoints": [21.0, None]}}, "sweep.new_setpoints", id="sweep.new_setpoints-null"
    ),
    pytest.param(
        "sweep-precool", {"precool": {"T_set_precool": None}}, "precool.T_set_precool", id="precool.T_set_precool-null"
    ),
    pytest.param(
        "sweep-setpoint", {"sweep": {"new_setpoints": [21.0, 23.8]}}, "sweep.new_setpoints", id="sweep.new_setpoints-band"
    ),
    pytest.param(
        "sweep-setpoint",
        {"sweep": {"new_setpoints": [21.0, 21.0000001]}},
        "sweep.new_setpoints",
        id="sweep.new_setpoints-same-file",
    ),
    pytest.param(
        "sweep-precool", {"precool": {"T_set_precool": 18.2}}, "precool.T_set_precool", id="precool.T_set_precool-band"
    ),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "validate": {"selection_seed": 1, "fraction": None}}, "validate.fraction",
        id="validate.fraction-null",
    ),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "validate": {**BLOCKS, "hold_steps": 120}}, "validate.hold_steps",
        id="validate.hold_steps-scalar",
    ),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "validate": {**BLOCKS, "hold_steps": [30, 30]}}, "validate.hold_steps",
        id="validate.hold_steps-repeated",
    ),
    pytest.param("aggregate", {"aggregate": {"inputs": [1, 2]}}, "aggregate.inputs", id="aggregate.inputs-numbers"),
    pytest.param("validate", {**VALIDATE_SEEDS, "fleet": {"seed": True}}, "fleet.seed", id="fleet.seed-bool"),
    pytest.param("validate", {**VALIDATE_SEEDS, "fleet": {"seed": -1}}, "fleet.seed", id="fleet.seed-negative"),
    pytest.param("validate", {**VALIDATE_SEEDS, "fleet": {"seed": 1.0}}, "fleet.seed", id="fleet.seed-float"),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "validate": {"selection_seed": False}}, "validate.selection_seed",
        id="validate.selection_seed-bool",
    ),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "validate": {"selection_seed": -3}}, "validate.selection_seed",
        id="validate.selection_seed-negative",
    ),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "fleet": {"seed": 1, "heterogeneity": "x"}}, "fleet.heterogeneity",
        id="fleet.heterogeneity-string",
    ),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "fleet": {"seed": 1, "heterogeneity": None}}, "fleet.heterogeneity",
        id="fleet.heterogeneity-null",
    ),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "fleet": {"seed": 1, "heterogeneity": 1.5}}, "heterogeneity",
        id="fleet.heterogeneity-range",
    ),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "validate": {**BLOCKS, "hold_tol_fraction": "x"}}, "validate.hold_tol_fraction",
        id="validate.hold_tol_fraction-string",
    ),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "validate": {**BLOCKS, "hold_tol_fraction": None}}, "validate.hold_tol_fraction",
        id="validate.hold_tol_fraction-null",
    ),
    pytest.param(
        "validate", {**VALIDATE_SEEDS, "validate": {**BLOCKS, "hold_tol_fraction": -0.01}}, "validate.hold_tol_fraction",
        id="validate.hold_tol_fraction-negative",
    ),
]


# each section is an object in DEFAULTS, and a number, null or list in
# its place is refused when the config loads
SECTION_SUBCOMMANDS = {
    "grid": "build-model",
    "reachhold": "reachhold",
    "fleet": "validate",
    "validate": "validate",
    "precool": "sweep-precool",
    "aggregate": "aggregate",
}
NON_OBJECT_SECTIONS = [
    pytest.param(sub, key, value, id=f"{key}-{label}")
    for key, sub in SECTION_SUBCOMMANDS.items()
    for label, value in (("number", 5), ("null", None), ("list", [1]))
]

# each key is misspelled or misplaced; a seed is accepted only where its
# subcommand reads it
SEEDS = {"fleet": {"seed": 1}, "validate": {"selection_seed": 1}}
UNKNOWN_KEYS = [
    pytest.param("build-model", {"gird": {"n_bins": 10}}, "gird", id="section"),
    pytest.param("build-model", {"T_max_step": 5}, "T_max_step", id="top-level"),
    pytest.param("build-model", {"grid": {"n_bin": 10}}, "grid.n_bin", id="grid.n_bin"),
    pytest.param("build-model", {"params": {"C_x": 1.0}}, "params.C_x", id="params.C_x"),
    pytest.param("reachhold", {"reachhold": {"method": ["exact"]}}, "reachhold.method", id="reachhold.method"),
    pytest.param("build-model", {"seed": 1}, "seed", id="seed-at-top"),
    pytest.param(
        "validate",
        {"fleet": {"seed": 1, "selection_seed": 1}, "validate": {"selection_seed": 1}},
        "fleet.selection_seed",
        id="seed-misplaced",
    ),
    pytest.param("validate", dict(SEEDS, estimation={"seed": 1}, fleets={}), "fleets", id="beside-seeds"),
]

# combined.csv of the pair in TestAggregate whose points sit just above P_nom
COMBINED_PAIR_CSV = """\
T_hold_steps,T_hold_hours,P_hold_kW,mode
8,0.13333333333333333,0.2500000009,exclusive
20,0.3333333333333333,0.1,exclusive
30,0.5,0.05,exclusive
5,0.08333333333333333,0.5000000018,simultaneous
8,0.13333333333333333,0.35000000090000005,simultaneous
20,0.3333333333333333,0.15000000000000002,simultaneous
30,0.5,0.05,simultaneous
13,0.21666666666666667,0.2500000009,consecutive
28,0.4666666666666667,0.1,consecutive
50,0.8333333333333334,0.05,consecutive
5,0.08333333333333333,0.5000000018,union
8,0.13333333333333333,0.35000000090000005,union
13,0.21666666666666667,0.2500000009,union
20,0.3333333333333333,0.15000000000000002,union
28,0.4666666666666667,0.1,union
50,0.8333333333333334,0.05,union
"""


def write_config(path, overrides):
    path.write_text(json.dumps(overrides, indent=2) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def tiny_config_path(tmp_path_factory):
    return write_config(tmp_path_factory.mktemp("cfg") / "tiny.json", TINY)


@pytest.fixture(scope="module")
def reachhold_out(tiny_config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("rh")
    assert main(["reachhold", "--config", tiny_config_path, "--out", str(out)]) == EXIT_OK
    return out


class TestConfigResolution:
    def test_defaults_have_no_seeds(self):
        blob = json.dumps(DEFAULTS)
        assert "seed" not in blob

    def test_effective_config_merges_nested(self):
        cfg = effective_config({"grid": {"n_bins": 10}})
        assert cfg["grid"]["n_bins"] == 10
        assert cfg["grid"]["T_min"] == DEFAULTS["grid"]["T_min"]
        assert cfg["dt_minutes"] == DEFAULTS["dt_minutes"]

    def test_missing_seed_is_load_error(self, tmp_path):
        cfg = {
            "P_on_total_kw": 700.0,
            "fleet": {"n_units": 200, "heterogeneity": 0.1},
            "validate": {"mode": "step", "selection_seed": 1},
        }
        path = write_config(tmp_path / "c.json", cfg)
        rc = main(["validate", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_config_and_preset_conflict(self, tiny_config_path, tmp_path):
        rc = main(
            ["reachhold", "--config", tiny_config_path, "--preset", "fig4",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_CONFIG

    def test_neither_config_nor_preset(self, tmp_path):
        assert main(["reachhold", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_preset_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["reachhold", "--preset", "fig99", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["build-model", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("subcommand, text", NONFINITE_CONFIGS)
    def test_nonfinite_number_is_config_error(self, subcommand, text, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, cfg", FRACTIONAL_COUNTS)
    def test_fractional_count_is_config_error(self, subcommand, cfg, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", cfg)
        assert main([subcommand, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, cfg, key", MISTYPED_CONFIGS)
    def test_mistyped_value_is_config_error(self, subcommand, cfg, key, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert not (out / "effective_config.json").exists()  # refused at load, before any run

    @pytest.mark.parametrize("subcommand, key, value", NON_OBJECT_SECTIONS)
    def test_non_object_section_is_config_error(self, subcommand, key, value, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {key: value})
        out = tmp_path / "o"
        assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"{key} must be an object" in err
        assert "Traceback" not in err
        assert not (out / "effective_config.json").exists()

    @pytest.mark.parametrize("subcommand, cfg, key", UNKNOWN_KEYS)
    def test_unknown_key_is_config_error(self, subcommand, cfg, key, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"unknown config key {key}" in err
        assert not (out / "effective_config.json").exists()

    def test_benchmark_workload_configs_resolve(self, tmp_path):
        # they carry the retired estimation section and every seed key
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            for step in workloads.steps(name, seed=1, index=0, out_root=tmp_path):
                validate_config(effective_config(step["config"]), step["subcommand"])

    def test_integral_float_count_is_accepted(self):
        cfg = effective_config({"grid": {"n_bins": 10.0}, "T_max_steps": 30.0})
        op, T_max = validate_config(cfg, "build-model")
        assert (op.grid.n_bins, T_max) == (10, 30)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["build-model", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_band_must_sit_inside_grid(self, tmp_path):
        cfg = dict(TINY, T_set=18.2)
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["build-model", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_methods_flag_outside_reachhold(self, tiny_config_path, tmp_path):
        rc = main(
            ["build-model", "--config", tiny_config_path, "--methods", "inner",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_CONFIG

    def test_bad_method_name(self, tiny_config_path, tmp_path):
        rc = main(
            ["reachhold", "--config", tiny_config_path, "--methods", "sideways",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_CONFIG

    def test_retired_estimation_section_is_ignored(self, tmp_path):
        # configs written for the Monte-Carlo matrix build still load, and
        # their sample count and seed change nothing
        outs = []
        for tag, estimation in (("a", {"n_samples": 500, "seed": 1}), ("b", None)):
            cfg = dict(TINY, estimation=estimation) if estimation else dict(TINY)
            path = write_config(tmp_path / f"{tag}.json", cfg)
            out = tmp_path / tag
            assert main(["build-model", "--config", path, "--out", str(out)]) == EXIT_OK
            echo = json.loads((out / "effective_config.json").read_text())
            assert "estimation" not in echo
            outs.append((out / "A.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["validate", "--preset", "fig2", "--seed-override", "-5", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "fleet.seed must be a nonnegative integer" in err
        assert not (out / "effective_config.json").exists()

    def test_seed_override_reaches_every_seed(self):
        cfg = resolve_config("validate", preset="fig2", seed_override=11)
        assert cfg["fleet"]["seed"] == 11
        assert cfg["validate"]["selection_seed"] == 11

    def test_presets_all_resolve(self):
        for name, sub in [
            ("fig2", "validate"), ("fig4", "reachhold"), ("fig5", "sweep-setpoint"),
            ("fig6", "sweep-precool"), ("fig7", "validate"),
        ]:
            assert name in PRESETS
            cfg = resolve_config(sub, preset=name)
            assert "estimation" not in cfg


class TestBuildModel:
    def test_artifacts_and_model_summary(self, tiny_config_path, tmp_path):
        out = tmp_path / "bm"
        assert main(["build-model", "--config", tiny_config_path, "--out", str(out)]) == EXIT_OK
        for name in ("A.csv", "A_actuated.csv", "x0.csv", "model.json", "effective_config.json"):
            assert (out / name).exists()
        assert not (out / "A_squeezed.csv").exists()
        model = json.loads((out / "model.json").read_text())
        assert model["stationary_residual"] <= 1e-10
        assert model["regime"]["n_bins"] == 10

    def test_saved_matrix_round_trips(self, tiny_config_path, tmp_path):
        out = tmp_path / "bm"
        main(["build-model", "--config", tiny_config_path, "--out", str(out)])
        tm = load_matrix(out / "A.csv")
        assert tm.P.shape == (20, 20)
        np.testing.assert_allclose(tm.P.sum(axis=0), 1.0, atol=1e-9)
        tm_a = load_matrix(out / "A_actuated.csv")
        assert tm_a.T_set == 22.0

    def test_console_script_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tclflex.cli", "build-model", "--preset", "fig4", "--out", str(tmp_path / "bm")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "model.json" in proc.stdout

    def test_x0_column_matches_model(self, tiny_config_path, tmp_path):
        out = tmp_path / "bm"
        main(["build-model", "--config", tiny_config_path, "--out", str(out)])
        rows = (out / "x0.csv").read_text().splitlines()
        assert rows[0] == "state,occupancy"
        occ = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert occ.size == 20
        assert occ.sum() == pytest.approx(1.0, abs=1e-9)


class TestReachhold:
    def test_all_methods_emit_frontiers(self, reachhold_out):
        for name in ("inner.csv", "outer.csv", "exact.csv"):
            assert (reachhold_out / name).exists()
        assert not (reachhold_out / "condition.json").exists()
        assert "condition" not in json.loads((reachhold_out / "outer.json").read_text())

    def test_frontiers_load_back(self, reachhold_out):
        for name in ("inner", "outer", "exact"):
            rh = load_set(reachhold_out / f"{name}.csv")
            assert rh.method == name
            assert len(rh.points) >= 1

    def test_exact_between_runs_of_inner_and_outer(self, reachhold_out):
        exact = load_set(reachhold_out / "exact.csv")
        outer = load_set(reachhold_out / "outer.csv")
        p_nom = exact.regime["P_nom_kw"]
        for pt in exact.points:
            assert pt.P_hold_kw <= p_nom + 1e-6 * exact.regime["P_on_total_kw"]
            assert pt.P_hold_kw <= max(o.P_hold_kw for o in outer.points) + 1e-6 * 3500.0

    def test_rerun_from_echo_is_byte_identical(self, reachhold_out, tmp_path):
        echo = reachhold_out / "effective_config.json"
        out2 = tmp_path / "again"
        assert main(["reachhold", "--config", str(echo), "--out", str(out2)]) == EXIT_OK
        for name in ("inner.csv", "outer.csv", "exact.csv",
                     "inner.json", "outer.json", "exact.json", "effective_config.json"):
            assert (out2 / name).read_bytes() == (reachhold_out / name).read_bytes()

    def test_t_grid_order_changes_nothing(self, tmp_path):
        # the exact route's running minimum runs along the sorted holds,
        # so listing them backwards, or twice, must write the same set
        outs = []
        for tag, t_grid in (("up", [1, 30]), ("down", [30, 1, 30])):
            cfg = dict(TINY, reachhold={"methods": ["exact"], "t_grid": t_grid})
            path, out = write_config(tmp_path / f"{tag}.json", cfg), tmp_path / tag
            assert main(["reachhold", "--config", path, "--out", str(out)]) == EXIT_OK
            outs.append([(out / name).read_bytes() for name in ("exact.csv", "exact.json")])
        assert outs[0] == outs[1]
        assert outs[0][0].decode().count("\n") == 3  # the header and both holds

    # on TINY's fleet exact and outer both read 1388.17 kW at T=5, 2.6 kW
    # under P_nom, so either shift makes exact exceed outer there
    @pytest.mark.parametrize(
        "owner, name, shift",
        [
            pytest.param(tclflex.reachhold, "solve_outer", -100.0, id="outer-low"),
            pytest.param(tclflex.scenario, "solve_exact", 100.0, id="exact-high"),
        ],
    )
    def test_crossing_frontiers_are_refused(self, owner, name, shift, tiny_config_path, tmp_path, monkeypatch, capsys):
        real = getattr(owner, name)

        def shifted(T, fleet):
            value, plan, sol = real(T, fleet)
            return value + shift, plan, sol

        monkeypatch.setattr(owner, name, shifted)
        out = tmp_path / "o"
        assert main(["reachhold", "--config", tiny_config_path, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "exact frontier exceeds outer at T=5:" in err
        assert not list(out.glob("*.csv"))

    def test_zero_reduction_claims_nothing(self, tmp_path):
        # raising the setpoint to itself reduces nothing at any hold
        path, out = write_config(tmp_path / "c.json", {**TINY, "T_set_new": DEFAULTS["T_set"]}), tmp_path / "o"
        assert main(["reachhold", "--config", path, "--out", str(out)]) == EXIT_OK
        for name in ("inner", "outer", "exact"):
            assert (out / f"{name}.csv").read_text() == "T_hold_steps,T_hold_hours,P_hold_kW,method\n"

    def test_methods_flag_restricts_output(self, tiny_config_path, tmp_path):
        out = tmp_path / "only_inner"
        rc = main(
            ["reachhold", "--config", tiny_config_path, "--methods", "inner",
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert (out / "inner.csv").exists()
        assert not (out / "outer.csv").exists()
        assert not (out / "exact.csv").exists()

    def test_seed_override_is_deterministic(self, tiny_config_path, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(
                ["reachhold", "--config", tiny_config_path, "--methods", "inner",
                 "--seed-override", "77", "--out", str(out)]
            )
            assert rc == EXIT_OK
            outs.append((out / "inner.csv").read_bytes())
        assert outs[0] == outs[1]
        echo = json.loads((tmp_path / "a" / "effective_config.json").read_text())
        assert echo["fleet"]["seed"] == 77


class TestValidate:
    def test_step_mode_runs_clean(self, tmp_path):
        cfg = {
            "T_max_steps": 40,
                    "P_on_total_kw": 700.0,
            "fleet": {"n_units": 200, "heterogeneity": 0.15, "seed": 42},
            "validate": {"mode": "step", "fraction": 0.5, "horizon": 40,
                         "burn_in_steps": 40, "selection_seed": 9},
        }
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert main(["validate", "--config", path, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["degraded"] is False
        assert np.isfinite(report["rmse"])
        trace_rows = (out / "traces.csv").read_text().splitlines()
        assert trace_rows[0] == "step,markov_kW,micro_kW"
        assert len(trace_rows) == 42  # header + horizon+1 samples

    def test_blocks_mode_shortfall_degrades(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", DEGRADING_BLOCKS)
        out = tmp_path / "out"
        rc = main(["validate", "--config", path, "--out", str(out)])
        assert rc == EXIT_DEGRADED
        assert capsys.readouterr().err.startswith("validation degraded: ")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["blocks"][0]["degraded"] is True
        report = json.loads((out / "block_10_report.json").read_text())
        assert report["shortfall_events"]

    def test_blocks_mode_builds_one_inner_profile(self, tmp_path, monkeypatch):
        # every block's target and plan read the fleet's one inner profile;
        # 200 units on 20 states run short of actuations, which is beside
        # the point here
        real, built = tclflex.reachhold.inner_profile, []
        monkeypatch.setattr(tclflex.reachhold, "inner_profile", lambda *args: built.append(args) or real(*args))
        cfg = {
            "grid": {"n_bins": 10},
            "T_max_steps": 60,
            "P_on_total_kw": 700.0,
            "fleet": {"n_units": 200, "heterogeneity": 0.15, "seed": 5},
            "validate": {"mode": "blocks", "hold_steps": [5, 10, 20], "burn_in_steps": 60, "selection_seed": 9},
        }
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["validate", "--config", path, "--out", str(tmp_path / "o")]) in (EXIT_OK, EXIT_DEGRADED)
        assert len(json.loads((tmp_path / "o" / "summary.json").read_text())["blocks"]) == 3
        assert len(built) == 1

    @pytest.mark.parametrize("mode", [{"mode": "step", "horizon": 30}, {"mode": "blocks", "hold_steps": [5, 10]}])
    def test_csv_lines_end_in_newline_only(self, tmp_path, mode):
        # every artifact ends its lines with \n, the traces included
        cfg = {
            "grid": {"n_bins": 10},
            "T_max_steps": 30,
            "P_on_total_kw": 700.0,
            "fleet": {"n_units": 200, "heterogeneity": 0.15, "seed": 5},
            "validate": {"burn_in_steps": 30, "selection_seed": 9, **mode},
        }
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert main(["validate", "--config", path, "--out", str(out)]) in (EXIT_OK, EXIT_DEGRADED)
        csvs = sorted(out.glob("*.csv"))
        assert csvs
        for csv_path in csvs:
            assert b"\r" not in csv_path.read_bytes(), csv_path.name

    def test_fleet_scale_must_match_bin_model(self, tmp_path):
        cfg = {
                    "fleet": {"n_units": 200, "heterogeneity": 0.1, "seed": 1},
            "validate": {"mode": "step", "selection_seed": 1},
        }
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["validate", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_selection_seed_required(self, tmp_path):
        cfg = {
                    "P_on_total_kw": 700.0,
            "fleet": {"n_units": 200, "heterogeneity": 0.1, "seed": 1},
        }
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["validate", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestAggregate:
    def test_combines_two_saved_sets(self, reachhold_out, tmp_path):
        cfg = {
            "aggregate": {
                "inputs": [str(reachhold_out / "inner.csv"), str(reachhold_out / "inner.csv")]
            }
        }
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert main(["aggregate", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = (out / "combined.csv").read_text().splitlines()
        assert rows[0] == "T_hold_steps,T_hold_hours,P_hold_kW,mode"
        assert len(rows) > 1

    def test_components_just_above_their_nominal_demand_combine(self, tmp_path):
        # each hand-written 0.5 kW set peaks 0.9e-9 kW above its P_nom, inside
        # its own 1e-9 kW tolerance; summed, the simultaneous frontier sits
        # 1.8e-9 kW above the summed P_nom, which no set of the pair's
        # tolerance would take, and combine builds none
        for name, rows in (
            ("a", ["5,0.08333333333333333,0.2500000009", "20,0.3333333333333333,0.1"]),
            ("b", ["8,0.13333333333333333,0.2500000009", "30,0.5,0.05"]),
        ):
            lines = ["T_hold_steps,T_hold_hours,P_hold_kW,method"] + [f"{row},inner" for row in rows]
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
            regime = {"P_on_total_kw": 0.5, "P_nom_kw": 0.25, "dt_minutes": 1.0}
            (tmp_path / f"{name}.json").write_text(json.dumps({"method": "inner", "regime": regime}))
        cfg = {"aggregate": {"inputs": [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]}}
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert main(["aggregate", "--config", path, "--out", str(out)]) == EXIT_OK
        assert (out / "combined.csv").read_text() == COMBINED_PAIR_CSV
        sidecar = {
            "component_regimes": [regime, regime],
            "dt_minutes": 1.0,
            "method": "inner",
            "modes": ["exclusive", "simultaneous", "consecutive", "union"],
        }
        assert (out / "combined.json").read_text() == json.dumps(sidecar, indent=2, sort_keys=True) + "\n"

    def test_wrong_input_count(self, reachhold_out, tmp_path):
        cfg = {"aggregate": {"inputs": [str(reachhold_out / "inner.csv")]}}
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["aggregate", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "row, sidecar",
        [
            ("5,0.08333333333333333,abc,inner", None),
            ("5,0.08333333333333333,nan,inner", None),
            ("5,0.08333333333333333,100.0", None),
            (None, "{not json"),
            (None, '{"points": []}'),
            # the rows below go in ahead of TINY's one inner row at T=30,
            # and are well formed but break the set it makes with that row
            ("0,0.0,1390.0,outer", None),
            ("0,0.0,0.0,inner", None),
            (f"{TINY['T_max_steps']},0.5,1390.0,inner", None),
        ],
        ids=[
            "P_not_numeric", "P_nan", "three_fields", "sidecar_not_json", "sidecar_without_method",
            "row_label_disagrees_with_sidecar", "P_rises_along_T", "duplicate_T",
        ],
    )
    def test_malformed_frontier_is_config_error(self, reachhold_out, tmp_path, capsys, row, sidecar):
        lines = (reachhold_out / "inner.csv").read_text().splitlines()
        if row is not None:
            lines.insert(1, row)
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "bad.json").write_text(sidecar or (reachhold_out / "inner.json").read_text())
        cfg = {"aggregate": {"inputs": [str(tmp_path / "bad.csv"), str(reachhold_out / "inner.csv")]}}
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["aggregate", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_non_finite_reduction_is_config_error(self, reachhold_out, tmp_path, capsys):
        # without P_nom_kw in the sidecar no bound caps the row's reduction
        lines = (reachhold_out / "inner.csv").read_text().splitlines()
        lines.insert(1, "5,0.08,inf,inner")
        sidecar = json.loads((reachhold_out / "inner.json").read_text())
        del sidecar["regime"]["P_nom_kw"]
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "bad.json").write_text(json.dumps(sidecar))
        cfg = {"aggregate": {"inputs": [str(tmp_path / "bad.csv"), str(reachhold_out / "inner.csv")]}}
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["aggregate", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(tmp_path / "bad.csv") in err and "finite" in err
        assert not (tmp_path / "o" / "combined.csv").exists()

    @pytest.mark.parametrize(
        "source, breaks",
        [
            ("inner", lambda s: s["points"][0].pop("T_hold_steps")),
            ("inner", lambda s: s.update(regime="default")),
            ("inner", lambda s: s["regime"].update(P_on_total_kw="x")),
            ("inner", lambda s: s["regime"].update(P_nom_kw="x")),
        ],
        ids=[
            "point_without_T_hold", "regime_not_object",
            "P_on_total_not_numeric", "P_nom_not_numeric",
        ],
    )
    def test_malformed_sidecar_is_config_error(self, reachhold_out, tmp_path, capsys, source, breaks):
        sidecar = json.loads((reachhold_out / f"{source}.json").read_text())
        breaks(sidecar)
        (tmp_path / "bad.csv").write_text((reachhold_out / f"{source}.csv").read_text())
        (tmp_path / "bad.json").write_text(json.dumps(sidecar))
        cfg = {"aggregate": {"inputs": [str(tmp_path / "bad.csv"), str(reachhold_out / "inner.csv")]}}
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["aggregate", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

SWEEP = {
    "grid": {"T_min": 18.0, "T_max": 24.0, "n_bins": 10},
    "T_max_steps": 20,
    "reachhold": {"p_grid_points": 3},
    "sweep": {"new_setpoints": [21.0, 22.0]},
    "precool": {"T_set_precool": 19.0},
}


@pytest.fixture(scope="module", params=["sweep-setpoint", "sweep-precool"])
def sweep_out(request, tmp_path_factory):
    """(subcommand, output directory) of one run of each sweep."""
    root = tmp_path_factory.mktemp(request.param)
    path = write_config(root / "c.json", SWEEP)
    assert main([request.param, "--config", path, "--out", str(root / "out")]) == EXIT_OK
    return request.param, root / "out"


class TestSweeps:
    def test_setpoint_sweep_artifacts(self, tmp_path):
        cfg = {
            "grid": {"T_min": 18.0, "T_max": 24.0, "n_bins": 10},
            "T_max_steps": 20,
                    "reachhold": {"p_grid_points": 3},
            "sweep": {"new_setpoints": [21.0, 22.0]},
        }
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert main(["sweep-setpoint", "--config", path, "--out", str(out)]) == EXIT_OK
        assert (out / "frontier_setpoint_21.csv").exists()
        assert (out / "frontier_setpoint_22.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert [e["T_set_new"] for e in summary["frontiers"]] == [21.0, 22.0]

    def test_precool_lifts_p_nom(self, tmp_path):
        cfg = {
            "grid": {"T_min": 18.0, "T_max": 24.0, "n_bins": 10},
            "T_max_steps": 20,
                    "reachhold": {"p_grid_points": 3},
            "precool": {"T_set_precool": 19.0},
        }
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert main(["sweep-precool", "--config", path, "--out", str(out)]) == EXIT_OK
        # the pre-cool summary lists both points in the setpoint sweep's schema
        base, pre = json.loads((out / "summary.json").read_text())["frontiers"]
        assert (base["T_set"], base["file"]) == (20.0, "baseline.csv")
        assert (pre["T_set"], pre["file"]) == (19.0, "precooled.csv")
        assert pre["P_nom_kw"] > base["P_nom_kw"]
        assert load_set(out / "baseline.csv").regime["T_set"] == 20.0
        assert load_set(out / "precooled.csv").regime["T_set"] == 19.0

    def test_summary_names_each_frontier(self, sweep_out):
        subcommand, out = sweep_out
        field = {"sweep-setpoint": "T_set_new", "sweep-precool": "T_set"}[subcommand]
        entries = json.loads((out / "summary.json").read_text())["frontiers"]
        assert len(entries) == 2
        for entry in entries:
            assert set(entry) == {field, "P_nom_kw", "file"}
            regime = load_set(out / entry["file"]).regime
            assert (entry[field], entry["P_nom_kw"]) == (regime[field], regime["P_nom_kw"])
        assert sorted(e["file"] for e in entries) == sorted(p.name for p in out.glob("*.csv"))

    def test_rerun_from_echo_is_byte_identical(self, sweep_out, tmp_path):
        subcommand, out = sweep_out
        out2 = tmp_path / "again"
        assert main([subcommand, "--config", str(out / "effective_config.json"), "--out", str(out2)]) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert len(names) == 6  # the echo, the summary, and two frontiers with their sidecars
        for name in names:
            assert (out2 / name).read_bytes() == (out / name).read_bytes()
