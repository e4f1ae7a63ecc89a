"""Unit tests for the single-TCL thermal model and fleet sampler.

The reference integrator below is independent of the package: classic
RK4 at one-second resolution with the thermostat checked every second.
"""

import copy
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tclflex.etp
from tclflex.errors import InvalidInputError
from tclflex.etp import (
    DEFAULT_PARAMS,
    Fleet,
    FleetSpec,
    FleetStepper,
    TclParams,
    sample_fleet,
    simulate_fleet,
    step_maps,
)

from expm_reference import expm_maps, expm_step_maps


def rk4_reference(T_a, T_m, on, T_set, params, T_amb, deadband, minutes, sub_dt_s=1.0):
    """Independent fine-step integration of the switched ODE.

    Advances `minutes` of wall time in RK4 sub-steps of sub_dt_s seconds,
    applying the thermostat after every sub-step.  Returns the final
    (T_a, T_m, on) and the fraction of time spent on.
    """
    h = sub_dt_s / 3600.0  # hours
    n_sub = int(round(minutes * 60.0 / sub_dt_s))
    on_time = 0.0
    for _ in range(n_sub):
        q_a = params.Q_a_on if on else params.Q_a_off

        def f(x):
            Ta, Tm = x
            dTa = (params.H_m * (Tm - Ta) + params.U_a * (T_amb - Ta) + q_a) / params.C_a
            dTm = (params.H_m * (Ta - Tm) + params.Q_m) / params.C_m
            return np.array([dTa, dTm])

        x = np.array([T_a, T_m])
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        T_a, T_m = float(x[0]), float(x[1])
        on_time += sub_dt_s if on else 0.0
        if T_a >= T_set + 0.5 * deadband:
            on = True
        elif T_a <= T_set - 0.5 * deadband:
            on = False
    return T_a, T_m, on, on_time / (n_sub * sub_dt_s)


def unit_stepper(T_a, T_m, on, T_amb=32.0, deadband=1.0, dt_minutes=1.0, params=DEFAULT_PARAMS, T_set=20.0):
    """A FleetStepper over a one-unit fleet in the given state."""
    spec = FleetSpec(n_units=1, nominal=params, deadband=deadband, T_amb=T_amb, T_set=T_set)
    fleet = Fleet(
        spec=spec,
        params={k: np.array([v]) for k, v in asdict(params).items()},
        T_a=np.array([T_a]),
        T_m=np.array([T_m]),
        on=np.array([on]),
        T_set=np.array([T_set]),
    )
    return FleetStepper(fleet, dt_minutes)


def unit_state(stepper):
    """(T_a, T_m, on) of a one-unit stepper's fleet."""
    f = stepper.fleet
    return float(f.T_a[0]), float(f.T_m[0]), bool(f.on[0])


class ExpmStepper(FleetStepper):
    """Oracle fleet stepper: per-unit, per-mode matrix exponentials of the
    augmented 3x3 system [[F, g], [0, 0]] at the fleet's own ambient
    temperature, gathered and applied per step."""

    def __init__(self, fleet, dt_minutes=1.0):
        self.fleet = fleet
        # index 0: compressor off, 1: on
        self.A_d, self.b_d = expm_maps(fleet.params, fleet.spec.T_amb, dt_minutes)

    def advance(self):
        f = self.fleet
        mode = f.on.astype(int)
        units = np.arange(f.n_units)
        x = np.stack([f.T_a, f.T_m], axis=1)
        x = np.einsum("nij,nj->ni", self.A_d[mode, units], x) + self.b_d[mode, units]
        f.T_a, f.T_m = x[:, 0], x[:, 1]
        f.on = tclflex.etp.apply_thermostat(f.T_a, f.T_set, f.on, f.spec.deadband)


def step_states(stepper, horizon):
    """Advance the stepper `horizon` steps; return its power trace and the
    fleet's T_a, T_m and on at every step, each with horizon+1 rows."""
    f = stepper.fleet
    power, rows = [stepper.power_kw()], [(f.T_a, f.T_m, f.on)]
    for _ in range(horizon):
        stepper.advance()
        power.append(stepper.power_kw())
        rows.append((f.T_a, f.T_m, f.on))
    T_a, T_m, on = (np.array(x) for x in zip(*rows))
    return np.array(power), T_a, T_m, on


def close_per_unit(got, ref, axes, rel=1e-12):
    """Each unit's largest error is within `rel` of the largest entry of
    its reference map (an all-zero reference must be matched exactly)."""
    return bool(np.all(np.abs(got - ref).max(axis=axes) <= rel * np.abs(ref).max(axis=axes)))


def duty_cycle_measured(params, T_amb, T_set, deadband, dt_minutes, hours):
    """Fraction of steps spent on over a long window, package integrator."""
    stepper = unit_stepper(T_set, T_set, True, T_amb, deadband, dt_minutes, params, T_set)
    n_steps = int(hours * 60 / dt_minutes)
    on_count = 0
    for _ in range(n_steps):
        stepper.advance()
        on_count += int(stepper.fleet.on[0])
    return on_count / n_steps


class TestStepTcl:
    """One TCL stepped as a one-unit fleet."""

    def test_matches_fine_step_reference_within_mode(self):
        # no switching possible: wide deadband, start mid-band
        stepper = unit_stepper(20.0, 21.0, True, T_amb=32.0, deadband=50.0, dt_minutes=10.0)
        stepper.advance()
        T_a, T_m, _ = unit_state(stepper)
        ref_Ta, ref_Tm, _, _ = rk4_reference(
            20.0, 21.0, True, 20.0, DEFAULT_PARAMS, 32.0, 50.0, minutes=10.0, sub_dt_s=0.5
        )
        assert T_a == pytest.approx(ref_Ta, abs=1e-7)
        assert T_m == pytest.approx(ref_Tm, abs=1e-7)

    def test_exact_discretization_composes(self):
        # two dt steps equal one 2dt step while the mode is fixed
        one = unit_stepper(22.0, 20.5, False, deadband=40.0, dt_minutes=1.0)
        one.advance()
        one.advance()
        two = unit_stepper(22.0, 20.5, False, deadband=40.0, dt_minutes=2.0)
        two.advance()
        assert unit_state(one)[:2] == pytest.approx(unit_state(two)[:2], abs=1e-9)

    def test_hysteresis_turns_on_at_upper_edge(self):
        stepper = unit_stepper(20.49, 20.5, False)
        stepper.advance()
        T_a, _, on = unit_state(stepper)
        assert T_a > 20.49  # off unit warms toward ambient
        if T_a >= 20.5:
            assert on

    def test_hysteresis_turns_off_at_lower_edge(self):
        stepper = unit_stepper(19.52, 20.0, True)
        stepper.advance()
        T_a, _, on = unit_state(stepper)
        assert T_a < 19.52
        if T_a <= 19.5:
            assert not on

    def test_mode_retained_inside_deadband(self):
        for on in (True, False):
            stepper = unit_stepper(20.0, 20.0, on, deadband=5.0)
            stepper.advance()
            assert unit_state(stepper)[2] == on

    def test_long_run_stays_within_deadband_plus_overshoot(self):
        # one-step overshoot past an edge is bounded by one step's travel
        stepper = unit_stepper(20.0, 20.0, False)
        lo, hi = 19.5, 20.5
        max_step_move = 0.0
        prev_T_a = 20.0
        for _ in range(24 * 60):
            stepper.advance()
            T_a = unit_state(stepper)[0]
            max_step_move = max(max_step_move, abs(T_a - prev_T_a))
            prev_T_a = T_a
            assert lo - max_step_move <= T_a <= hi + max_step_move
        assert max_step_move < 0.25  # sanity: cycles are slow vs dt

    def test_duty_cycle_matches_energy_balance_and_reference(self):
        params = DEFAULT_PARAMS
        duty = duty_cycle_measured(params, T_amb=32.0, T_set=20.0, deadband=1.0, dt_minutes=1.0, hours=48.0)
        analytic = params.duty_cycle(32.0, 20.0)
        assert duty == pytest.approx(analytic, abs=0.02)
        # independent fine-step reference over the same window
        _, _, _, ref_duty = rk4_reference(20.0, 20.0, True, 20.0, params, 32.0, 1.0, minutes=48 * 60.0)
        assert duty == pytest.approx(ref_duty, abs=0.02)

    def test_hotter_ambient_means_warmer_air_next_step(self):
        cool = unit_stepper(20.0, 20.0, False, T_amb=28.0, deadband=5.0)
        hot = unit_stepper(20.0, 20.0, False, T_amb=36.0, deadband=5.0)
        cool.advance()
        hot.advance()
        assert unit_state(hot)[0] > unit_state(cool)[0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            unit_stepper(20.0, 20.0, False, deadband=-1.0)
        with pytest.raises(InvalidInputError):
            unit_stepper(20.0, 20.0, False, T_amb=float("nan"))
        with pytest.raises(InvalidInputError):
            unit_stepper(20.0, 20.0, False, dt_minutes=0.0)
        with pytest.raises(InvalidInputError):
            TclParams(C_a=-1.0, C_m=1.0, U_a=0.3, H_m=1.0, Q_a_on=-10.0, Q_a_off=0.0, Q_m=0.0, P_rate=3.0)


class TestTclParams:
    @pytest.mark.parametrize("name", ["C_a", "C_m", "U_a", "H_m"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0])
    def test_rejects_nonpositive_or_nonfinite_thermal_params(self, name, value):
        with pytest.raises(InvalidInputError, match=name):
            TclParams(**{**asdict(DEFAULT_PARAMS), name: value})


def maps_as_matrices(maps, on):
    """(A_d, b_d) of one mode from `step_maps`-layout entries."""
    (a00, a01, a10, a11), b_d = maps
    return np.array([[a00, a01], [a10, a11]]), np.array(b_d[on])


class TestDiscretize:
    """The closed-form one-step maps of `step_maps` for one unit."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        scale=st.lists(st.floats(-0.95, 0.95), min_size=8, max_size=8),
        T_amb=st.floats(20.0, 45.0),
        log10_dt=st.floats(-9.0, np.log10(30.0)),
    )
    def test_closed_form_matches_expm(self, scale, T_amb, log10_dt):
        # each map within 1e-12 of its largest entry, in both modes
        params = asdict(DEFAULT_PARAMS)
        params = {name: value * (1.0 + r) for (name, value), r in zip(params.items(), scale)}
        dt = 10.0**log10_dt
        maps = step_maps(params, T_amb, dt)
        ref = expm_step_maps(params, T_amb, dt)
        for on in (False, True):
            A_d, b_d = maps_as_matrices(maps, on)
            A_ref, b_ref = maps_as_matrices(ref, on)
            assert np.abs(A_d - A_ref).max() <= 1e-12 * np.abs(A_ref).max()
            assert np.abs(b_d - b_ref).max() <= 1e-12 * np.abs(b_ref).max()

    def test_identity_at_tiny_dt(self):
        A_d, b_d = maps_as_matrices(step_maps(asdict(DEFAULT_PARAMS), 32.0, 1e-9), on=True)
        assert np.allclose(A_d, np.eye(2), atol=1e-9)
        assert np.allclose(b_d, 0.0, atol=1e-9)

    def test_fixed_point_is_ode_equilibrium(self):
        # A_d x* + b_d = x* at the continuous equilibrium
        params = DEFAULT_PARAMS
        T_amb = 32.0
        # off mode: T_a -> T_amb + Q_a_off/U_a, T_m -> T_a + Q_m/H_m
        T_a_eq = T_amb + params.Q_a_off / params.U_a
        T_m_eq = T_a_eq + params.Q_m / params.H_m
        A_d, b_d = maps_as_matrices(step_maps(asdict(params), T_amb, 30.0), on=False)
        x = np.array([T_a_eq, T_m_eq])
        assert np.allclose(A_d @ x + b_d, x, atol=1e-9)


class TestSampleFleet:
    def test_deterministic_in_seed(self):
        spec = FleetSpec(n_units=50, heterogeneity=0.1, seed=7)
        a = sample_fleet(spec)
        b = sample_fleet(spec)
        assert np.array_equal(a.T_a, b.T_a)
        assert np.array_equal(a.on, b.on)
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_different_seed_differs(self):
        a = sample_fleet(FleetSpec(n_units=50, heterogeneity=0.1, seed=7))
        b = sample_fleet(FleetSpec(n_units=50, heterogeneity=0.1, seed=8))
        assert not np.array_equal(a.T_a, b.T_a)

    def test_parameter_means_near_nominal(self):
        spec = FleetSpec(n_units=1000, heterogeneity=0.1, seed=3)
        fleet = sample_fleet(spec)
        for key in ("C_a", "C_m", "U_a", "H_m", "P_rate"):
            nominal = getattr(spec.nominal, key)
            assert abs(fleet.params[key].mean() - nominal) <= 0.01 * abs(nominal)

    def test_initial_air_temps_on_deadband(self):
        spec = FleetSpec(n_units=500, heterogeneity=0.0, seed=1)
        fleet = sample_fleet(spec)
        assert fleet.T_a.min() >= spec.T_set - 0.5 * spec.deadband
        assert fleet.T_a.max() <= spec.T_set + 0.5 * spec.deadband
        assert np.array_equal(fleet.T_m, fleet.T_a)

    def test_homogeneous_fleet_has_identical_params(self):
        fleet = sample_fleet(FleetSpec(n_units=10, heterogeneity=0.0, seed=2))
        for key in fleet.params:
            assert np.ptp(fleet.params[key]) == 0.0

    def test_initial_on_fraction_near_duty(self):
        spec = FleetSpec(n_units=2000, heterogeneity=0.0, seed=5)
        fleet = sample_fleet(spec)
        duty = spec.nominal.duty_cycle(spec.T_amb, spec.T_set)
        assert abs(fleet.on.mean() - duty) < 0.05


class TestSimulateFleet:
    def test_bit_identical_reruns(self):
        spec = FleetSpec(n_units=100, heterogeneity=0.1, seed=11)
        fleets = [sample_fleet(spec) for _ in range(2)]
        p1, p2 = (simulate_fleet(FleetStepper(f), 120) for f in fleets)
        assert np.array_equal(p1, p2)
        assert np.array_equal(fleets[0].T_a, fleets[1].T_a)

    def test_raised_setpoint_shifts_band(self):
        spec = FleetSpec(n_units=200, heterogeneity=0.0, seed=17)
        fleet = sample_fleet(spec)
        fleet.T_set = np.full(spec.n_units, 22.0)
        power, T_a, _, _ = step_states(FleetStepper(fleet), 480)
        # the fleet eventually cycles around 22
        assert 21.0 < T_a[360:].mean() < 23.0
        # immediately after the change everything shuts off within a few steps
        assert power[3] == 0.0

    def test_power_is_sum_of_on_ratings(self):
        spec = FleetSpec(n_units=30, heterogeneity=0.1, seed=19)
        fleet = sample_fleet(spec)
        power = simulate_fleet(FleetStepper(copy.deepcopy(fleet)), 10)
        _, _, _, on = step_states(FleetStepper(fleet), 10)
        for k in range(11):
            expect = fleet.params["P_rate"][on[k]].sum()
            assert power[k] == pytest.approx(expect, rel=1e-12)

    def test_rejects_negative_horizon(self):
        with pytest.raises(InvalidInputError, match="horizon"):
            simulate_fleet(FleetStepper(sample_fleet(FleetSpec(n_units=3))), -1)

    def test_power_matches_oracle_stepper(self):
        spec = FleetSpec(n_units=1000, heterogeneity=0.15, seed=29)
        fast = step_states(FleetStepper(sample_fleet(spec)), 480)
        power, T_a, T_m, on = step_states(ExpmStepper(sample_fleet(spec)), 480)
        assert np.array_equal(fast[3], on)
        assert np.array_equal(fast[0], power)
        assert np.abs(fast[1] - T_a).max() <= 1e-11
        assert np.abs(fast[2] - T_m).max() <= 1e-11

    def test_cached_offsets_follow_edits_between_steps(self):
        # the stepper caches each unit's offsets for its last mode; a caller
        # that replaces or edits fleet.on, or replaces fleet.T_set, between
        # steps must still get the oracle's trajectory
        spec = FleetSpec(n_units=1000, heterogeneity=0.15, seed=29)
        rng = np.random.default_rng(5)
        new_on = rng.uniform(size=spec.n_units) < 0.5
        flipped = rng.choice(spec.n_units, 100, replace=False)
        new_T_set = rng.uniform(19.0, 22.0, size=spec.n_units)

        def flip_in_place(f):
            f.on[flipped] = ~f.on[flipped]

        edits = [
            flip_in_place,  # before the first step, too
            lambda f: setattr(f, "on", new_on.copy()),
            flip_in_place,
            lambda f: setattr(f, "T_set", new_T_set.copy()),
        ]
        fast, oracle = FleetStepper(sample_fleet(spec)), ExpmStepper(sample_fleet(spec))
        for edit in edits:
            edit(fast.fleet)
            edit(oracle.fleet)
            got = step_states(fast, 40)
            power, T_a, _, on = step_states(oracle, 40)
            assert np.array_equal(got[3], on)
            assert np.array_equal(got[0], power)
            assert np.abs(got[1] - T_a).max() <= 1e-11


class TestFleetStepper:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        heterogeneity=st.floats(0.0, 0.95),
        T_amb=st.floats(20.0, 45.0),
        log10_dt=st.floats(-9.0, np.log10(30.0)),
    )
    @example(heterogeneity=0.15, T_amb=32.0, log10_dt=0.0)
    @example(heterogeneity=0.95, T_amb=45.0, log10_dt=np.log10(30.0))
    @example(heterogeneity=0.0, T_amb=30.0, log10_dt=-9.0)
    def test_closed_form_maps_match_expm(self, heterogeneity, T_amb, log10_dt):
        dt = 10.0**log10_dt
        fleet = sample_fleet(FleetSpec(n_units=64, heterogeneity=heterogeneity, T_amb=T_amb, seed=31))
        stepper = FleetStepper(fleet, dt)
        oracle = ExpmStepper(fleet, dt)
        A_d = np.stack(
            [np.stack([stepper.a00, stepper.a01], -1), np.stack([stepper.a10, stepper.a11], -1)], -2
        )
        for mode in (0, 1):
            assert close_per_unit(A_d, oracle.A_d[mode], (1, 2))
            b_d = np.stack(stepper.b_d[mode], -1)
            assert close_per_unit(b_d, oracle.b_d[mode], 1)

    def test_rejects_nonpositive_dt(self):
        fleet = sample_fleet(FleetSpec(n_units=3))
        with pytest.raises(InvalidInputError):
            FleetStepper(fleet, 0.0)
