"""Tests for the plan discretization and micro cross-validation layer."""

import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import warnings

from tclflex.errors import InvalidInputError
from tclflex.etp import DEFAULT_PARAMS, FleetSpec, FleetStepper, sample_fleet, simulate_fleet
from tclflex.markov import BinGrid
from tclflex.validation import (
    _choice_positions,
    _state_pools,
    apply_plan_micro,
    burn_in,
    compare_traces,
    discretize_plan,
    save_validation_report,
)

from conftest import T_AMB, T_SET, T_SET_NEW
from micro_reference import ReferenceStepper, reference_apply_plan_micro


def single_bin_plan(per_step: float, steps: int, n_states: int = 4, bin_idx: int = 1) -> np.ndarray:
    u = np.zeros((steps, n_states))
    u[:, bin_idx] = per_step
    return u


class TestDiscretizePlan:
    def test_carry_recursion_hand_values(self):
        # U = 0.4 per step: totals cycle 0.4, 0.8, 1.2, 0.6, 1.0 so the
        # floor pattern repeats 0,0,1,0,1 with carries 0.4,0.8,0.2,0.6,0.0;
        # the carry after step k is what the cumulative counts still owe
        plan = single_bin_plan(0.4 / 1000, steps=10)
        d = discretize_plan(plan, n_units=1000)
        assert d[:, 1].tolist() == [0, 0, 1, 0, 1, 0, 0, 1, 0, 1]
        expected_carry = [0.4, 0.8, 0.2, 0.6, 0.0, 0.4, 0.8, 0.2, 0.6, 0.0]
        owed = 0.4 * np.arange(1, 11) - np.cumsum(d[:, 1])
        assert owed == pytest.approx(expected_carry, abs=1e-9)
        assert d[:, 0].sum() == 0 and d[:, 2:].sum() == 0

    def test_integer_multiples_floor_exactly(self):
        u = np.zeros((5, 3))
        u[:, 0] = np.array([3, 0, 2, 1, 4]) / 200.0
        d = discretize_plan(u, n_units=200)
        assert d[:, 0].tolist() == [3, 0, 2, 1, 4]
        assert np.array_equal(np.cumsum(d, axis=0), np.cumsum(np.rint(u * 200), axis=0))

    def test_cumulative_fidelity_within_one_unit_per_state(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(0.0, 0.02, size=(30, 8))
        u *= 0.9 / u.sum()  # admissible total budget
        d = discretize_plan(u, n_units=750)
        exact = np.cumsum(u * 750, axis=0)
        got = np.cumsum(d, axis=0)
        assert np.all(np.abs(got - exact) <= 1.0 + 1e-9)
        assert d.sum() <= 750

    def test_alpha_plan_expands_through_x0(self):
        x_0 = np.array([0.5, 0.25, 0.25, 0.0])
        alpha = np.array([0.2, 0.0, 0.8])
        d = discretize_plan(alpha[:, None] * x_0[None, :], n_units=100)
        assert d[0].tolist() == [10, 5, 5, 0]  # floor of 0.2 * x_0 * 100
        assert d.sum() == pytest.approx(100, abs=len(x_0))

    def test_alpha_plan_without_x0_rejected(self):
        # a bare allocation is not a plan until it is expanded through x_0
        with pytest.raises(InvalidInputError, match="shape"):
            discretize_plan(np.array([0.5]), n_units=10)

    def test_negative_entries_rejected(self):
        u = single_bin_plan(0.1, steps=3)
        u[2, 0] = -1e-9
        with pytest.raises(InvalidInputError, match="nonnegative"):
            discretize_plan(u, n_units=10)

    def test_counts_are_an_integer_array(self):
        d = discretize_plan(single_bin_plan(0.4 / 50, steps=10), n_units=50)
        assert isinstance(d, np.ndarray) and d.shape == (10, 4)
        assert np.issubdtype(d.dtype, np.integer)


@pytest.fixture(scope="module")
def settled_fleet():
    """A 200-unit homogeneous fleet burned in to its steady cycle."""
    fleet = sample_fleet(FleetSpec(n_units=200, seed=42, T_set=T_SET, T_amb=T_AMB))
    burn_in(FleetStepper(fleet), steps=240)
    return fleet


class TestStatePools:
    def test_grouped_pools_equal_flatnonzero_pools(self):
        grid = BinGrid(18.0, 24.0, 40)
        fleet = sample_fleet(FleetSpec(n_units=5000, heterogeneity=0.15, seed=37))
        burn_in(FleetStepper(fleet), steps=30)
        actuated = np.random.default_rng(41).uniform(size=fleet.n_units) < 0.3
        state_idx = grid.state_index(fleet.T_a, fleet.on)
        # keyed as apply_plan_micro keys them: only units not yet actuated
        eligible = np.flatnonzero(~actuated)
        keys = grid.state_index(fleet.T_a[eligible], fleet.on[eligible])
        keys = keys.astype(np.min_scalar_type(grid.n_states - 1))
        states = np.arange(grid.n_states)
        order, starts, sizes = _state_pools(keys, states)
        pools = [eligible[order[lo : lo + n]] for lo, n in zip(starts, sizes)]
        assert sum(p.size for p in pools) == eligible.size
        for i, pool in zip(states, pools):
            assert np.array_equal(pool, np.flatnonzero(~actuated & (state_idx == i)))


# a pool of n units with take k, 1 <= k <= n: take 1, the whole pool,
# a few or any share of it; pools past Generator.choice's tail-shuffle
# threshold (n > 10 000, k > n // 50), and large pools just inside it
SMALL_POOL = st.integers(1, 3000).flatmap(
    lambda n: st.tuples(st.just(n), st.one_of(st.just(1), st.just(n), st.integers(1, min(n, 40)), st.integers(1, n)))
)
TAIL_POOL = st.integers(10_001, 20_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(n // 50 + 1, n)))
LARGE_FLOYD_POOL = st.integers(10_001, 20_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n // 50)))


class TestChoicePositions:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        pools=st.lists(st.one_of(SMALL_POOL, SMALL_POOL, SMALL_POOL, TAIL_POOL, LARGE_FLOYD_POOL), min_size=1, max_size=19),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(pools=[(447, 1)], seed=0)
    @example(pools=[(1, 1), (5, 5), (447, 447)], seed=1)
    @example(pools=[(447, 7)] * 19, seed=2)
    @example(pools=[(300, 4), (12_000, 241), (300, 4), (12_000, 240)], seed=3)
    def test_picks_what_choice_picks(self, pools, seed):
        # one rng.integers call per run of Floyd pools stands in for one
        # rng.choice(n, size=k, replace=False) per pool: the same index
        # set from each pool, and the generator left where choice leaves it
        starts = np.cumsum([0] + [n for n, _ in pools[:-1]]).tolist()
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _choice_positions(rng, [(start, n, k) for start, (n, k) in zip(starts, pools)])
        at = 0
        for start, (n, k) in zip(starts, pools):
            want = start + ref.choice(n, size=k, replace=False)
            assert sorted(got[at : at + k]) == sorted(want.tolist())
            at += k
        assert at == len(got)
        assert rng.integers(2**63) == ref.integers(2**63)


class TestApplyPlanMicro:
    def test_zero_plan_matches_unactuated_baseline(self, settled_fleet):
        # validate's step switches its units itself and then replays an
        # empty plan, so that replay must be simulate_fleet bit for bit
        grid = BinGrid(18.0, 24.0, 20)
        for plan_steps in (0, 5):
            plan = np.zeros((plan_steps, grid.n_states), dtype=int)
            ref, fleet = copy.deepcopy(settled_fleet), copy.deepcopy(settled_fleet)
            for f in (ref, fleet):
                f.T_set[::2] = T_SET_NEW
            power = simulate_fleet(FleetStepper(ref), 12)
            run = apply_plan_micro(FleetStepper(fleet), plan, grid, T_SET_NEW, horizon=12, seed=3)
            assert np.array_equal(run.power_kw, power), plan_steps
            for name in ("T_a", "T_m", "on", "T_set"):
                assert np.array_equal(getattr(fleet, name), getattr(ref, name)), (plan_steps, name)
            assert run.total_selected == 0 and not run.shortfall_events
            assert run.total_requested == 0 and not run.degraded

    def test_actuate_everyone_collapses_demand(self, settled_fleet):
        grid = BinGrid(18.0, 24.0, 20)
        fleet = copy.deepcopy(settled_fleet)
        state_idx = grid.temp_bin(fleet.T_a) + grid.n_bins * fleet.on.astype(int)
        counts = np.zeros((1, grid.n_states), dtype=int)
        for i in state_idx:
            counts[0, i] += 1
        run = apply_plan_micro(FleetStepper(fleet), counts, grid, T_SET_NEW, horizon=20, seed=5)
        assert run.total_requested == run.total_selected == 200
        # a 2 degC raise with a 1 degC band shuts every compressor within a step
        assert run.power_kw[2] == 0.0
        assert np.all(fleet.T_set == T_SET_NEW)

    def test_same_seed_reproduces_trace(self, settled_fleet):
        grid = BinGrid(18.0, 24.0, 20)
        counts = np.zeros((6, grid.n_states), dtype=int)
        counts[::2, grid.n_bins + 5] = 3  # pull from an on bin near the band
        counts[1::2, 6] = 2  # and an off bin inside it
        runs = [
            apply_plan_micro(
                FleetStepper(copy.deepcopy(settled_fleet)), counts, grid, T_SET_NEW, horizon=30, seed=9
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].power_kw, runs[1].power_kw)
        assert np.array_equal(runs[0].actuated, runs[1].actuated)

    def test_one_stepper_carries_burn_in_into_replay(self):
        # validate carries one stepper from burn-in into the replay; that
        # gives the same trace, bit for bit, as a fresh stepper per phase
        spec = FleetSpec(n_units=300, heterogeneity=0.15, deadband=0.8, T_amb=34.0, seed=43)
        grid = BinGrid(18.0, 24.0, 20)
        counts = np.zeros((6, grid.n_states), dtype=int)
        counts[::2, grid.n_bins + 5] = 3
        counts[1::2, 6] = 2
        carried = FleetStepper(sample_fleet(spec))
        baseline = burn_in(carried, 120)
        run = apply_plan_micro(carried, counts, grid, T_SET_NEW, horizon=30, seed=9)
        fleet = sample_fleet(spec)
        fresh_baseline = burn_in(FleetStepper(fleet), 120)
        fresh = apply_plan_micro(FleetStepper(fleet), counts, grid, T_SET_NEW, horizon=30, seed=9)
        assert run.total_selected > 0
        assert baseline == fresh_baseline
        assert np.array_equal(run.power_kw, fresh.power_kw)
        assert np.array_equal(run.actuated, fresh.actuated)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        n_bins=st.sampled_from([10, 20, 40]),
        fleet_seed=st.integers(0, 2**16),
        plan_seed=st.integers(0, 2**16),
        selection_seed=st.integers(0, 2**16),
        max_count=st.integers(1, 12),
    )
    @example(n_bins=40, fleet_seed=1, plan_seed=2, selection_seed=3, max_count=12)
    @example(n_bins=10, fleet_seed=4, plan_seed=5, selection_seed=6, max_count=1)
    def test_matches_reference_replay(self, n_bins, fleet_seed, plan_seed, selection_seed, max_count):
        spec = FleetSpec(n_units=240, heterogeneity=0.15, seed=fleet_seed)
        grid = BinGrid(18.0, 24.0, n_bins)
        rng = np.random.default_rng(plan_seed)
        # a dozen units well outside [T_min, T_max] exercise the key clip
        fleet = sample_fleet(spec)
        outside = rng.choice(spec.n_units, 12, replace=False)
        fleet.T_a[outside[:6]] = grid.T_min - rng.uniform(0.1, 3.0, 6)
        fleet.T_a[outside[6:]] = grid.T_max + rng.uniform(0.1, 3.0, 6)
        fleet.T_m = fleet.T_a.copy()
        counts = rng.integers(0, max_count + 1, size=(8, grid.n_states))
        counts *= rng.uniform(size=counts.shape) < 0.15
        while counts.sum() > spec.n_units:
            counts //= 2
        ref_fleet = copy.deepcopy(fleet)
        run = apply_plan_micro(FleetStepper(fleet), counts, grid, T_SET_NEW, 12, selection_seed)
        power, actuated, shortfalls = reference_apply_plan_micro(
            ReferenceStepper(ref_fleet), counts, grid, T_SET_NEW, 12, selection_seed
        )
        assert np.array_equal(run.power_kw, power)
        assert np.array_equal(run.actuated, actuated)
        assert run.shortfall_events == shortfalls
        assert np.array_equal(fleet.T_set, ref_fleet.T_set)
        assert run.total_selected == int(actuated.sum())

    def test_empty_bin_shortfall_degrades_without_warning(self, settled_fleet):
        grid = BinGrid(18.0, 24.0, 20)
        counts = np.zeros((1, grid.n_states), dtype=int)
        counts[0, 0] = 10  # 18.0-18.3 degC: unoccupied at steady state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = apply_plan_micro(
                FleetStepper(copy.deepcopy(settled_fleet)), counts, grid, T_SET_NEW, horizon=3, seed=1
            )
        assert run.degraded
        assert run.shortfall_events[0]["requested"] == 10
        assert run.shortfall_events[0]["selected"] == 0

    def test_units_never_actuated_twice(self, settled_fleet):
        grid = BinGrid(18.0, 24.0, 20)
        fleet = copy.deepcopy(settled_fleet)
        state_idx = grid.temp_bin(fleet.T_a) + grid.n_bins * fleet.on.astype(int)
        occupancy = np.bincount(state_idx, minlength=grid.n_states)
        # ask for the same busy bin twice; second round must draw fresh units
        busy = int(np.argmax(occupancy))
        take = int(occupancy[busy]) // 2
        counts = np.zeros((2, grid.n_states), dtype=int)
        counts[:, busy] = take
        run = apply_plan_micro(FleetStepper(fleet), counts, grid, T_SET_NEW, horizon=4, seed=2)
        assert int(run.actuated.sum()) == run.total_selected

    def test_zero_plan_replays_on_any_fleet_and_over_budget_refused(self, settled_fleet):
        # the counts record no fleet size: a zero plan discretized for 999
        # units replays on the 200-unit fleet, one for 201 units does not
        grid = BinGrid(18.0, 24.0, 20)
        zero = discretize_plan(np.zeros((1, grid.n_states)), n_units=999)
        run = apply_plan_micro(FleetStepper(copy.deepcopy(settled_fleet)), zero, grid, T_SET_NEW)
        assert run.total_requested == 0
        over = np.zeros((2, grid.n_states), dtype=int)
        over[:, grid.n_bins + 5] = [150, 51]
        with pytest.raises(InvalidInputError, match="plan actuates 201 units but the fleet has 200"):
            apply_plan_micro(FleetStepper(copy.deepcopy(settled_fleet)), over, grid, T_SET_NEW)

    def test_over_budget_counts_rejected(self, settled_fleet):
        grid = BinGrid(18.0, 24.0, 20)
        u = np.full((4, grid.n_states), 0.25)  # total mass 10.0 > 1
        counts = discretize_plan(u, n_units=200)
        with pytest.raises(InvalidInputError, match="actuates"):
            apply_plan_micro(FleetStepper(copy.deepcopy(settled_fleet)), counts, grid, T_SET_NEW)

    @pytest.mark.parametrize(
        "counts, match",
        [
            (np.zeros(40, dtype=int), "2-D integer"),
            (np.zeros((1, 40)), "2-D integer"),
            (np.full((1, 40), -1), "nonnegative"),
            (np.zeros((1, 39), dtype=int), "states"),
        ],
    )
    def test_malformed_counts_rejected(self, settled_fleet, counts, match):
        grid = BinGrid(18.0, 24.0, 20)
        with pytest.raises(InvalidInputError, match=match):
            apply_plan_micro(FleetStepper(copy.deepcopy(settled_fleet)), counts, grid, T_SET_NEW)

    def test_horizon_shorter_than_plan_rejected(self, settled_fleet):
        grid = BinGrid(18.0, 24.0, 20)
        plan = np.zeros((5, grid.n_states), dtype=int)
        with pytest.raises(InvalidInputError, match="horizon"):
            apply_plan_micro(
                FleetStepper(copy.deepcopy(settled_fleet)), plan, grid, T_SET_NEW, horizon=3
            )


class TestBurnIn:
    def test_baseline_near_duty_cycle_mean(self):
        fleet = sample_fleet(FleetSpec(n_units=400, seed=7, T_set=T_SET, T_amb=T_AMB))
        baseline = burn_in(FleetStepper(fleet), steps=360)
        duty = DEFAULT_PARAMS.duty_cycle(T_AMB, T_SET)
        assert baseline == pytest.approx(duty * fleet.params["P_rate"].sum(), rel=0.10)

    def test_baseline_is_mean_of_second_half(self):
        spec = FleetSpec(n_units=50, heterogeneity=0.1, seed=3)
        power = simulate_fleet(FleetStepper(sample_fleet(spec)), 9)
        assert burn_in(FleetStepper(sample_fleet(spec)), 9) == float(power[-4:].mean())
        assert burn_in(FleetStepper(sample_fleet(spec)), 1) == power[1]

    @pytest.mark.parametrize("steps", [1, 2, 9, 240])
    def test_reads_power_only_over_the_averaged_half(self, steps, monkeypatch):
        stepper = FleetStepper(sample_fleet(FleetSpec(n_units=50, seed=3)))
        real, reads = stepper.power_kw, []
        monkeypatch.setattr(stepper, "power_kw", lambda: reads.append(steps) or real())
        burn_in(stepper, steps)
        assert len(reads) == max(1, steps // 2)

    def test_requires_positive_steps(self):
        fleet = sample_fleet(FleetSpec(n_units=2, seed=0))
        with pytest.raises(InvalidInputError):
            burn_in(FleetStepper(fleet), steps=0)


class TestCompareTraces:
    def test_identical_traces(self):
        t = np.array([1000.0, 400.0, 300.0, 350.0])
        rep = compare_traces(
            t, t, p_on_total=3500.0, P_hold_kw=600.0, T_hold_steps=3, baseline_kw=1000.0, hold_tol_kw=0.0
        )
        assert rep["rmse"] == 0.0 and rep["max_abs_dev"] == 0.0
        assert rep["hold_satisfied_fraction"] == 1.0

    def test_constant_offset_sets_max_dev(self):
        a = np.linspace(900.0, 1100.0, 7)
        rep = compare_traces(a, a - 70.0, p_on_total=3500.0)
        assert rep["max_abs_dev"] == pytest.approx(70.0 / 3500.0)
        assert rep["rmse"] == pytest.approx(70.0 / 3500.0)
        assert rep["hold_satisfied_fraction"] is None

    def test_hold_fraction_counts_tolerant_steps(self):
        micro = np.array([1000.0, 500.0, 520.0, 700.0, 500.0])
        rep = compare_traces(
            np.zeros(5), micro, p_on_total=1000.0,
            P_hold_kw=450.0, T_hold_steps=4, baseline_kw=1000.0, hold_tol_kw=50.0,
        )
        # reductions 500, 480, 300, 500 against the 400 kW floor
        assert rep["hold_satisfied_fraction"] == pytest.approx(0.75)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            compare_traces(np.zeros(4), np.zeros(5), p_on_total=100.0)

    def test_hold_args_must_travel_together(self):
        with pytest.raises(InvalidInputError):
            compare_traces(np.zeros(4), np.zeros(4), p_on_total=100.0, P_hold_kw=10.0)

    def test_hold_tolerance_has_no_default(self):
        with pytest.raises(InvalidInputError, match="hold_tol_kw"):
            compare_traces(
                np.zeros(4), np.zeros(4), p_on_total=100.0, P_hold_kw=10.0, T_hold_steps=2, baseline_kw=50.0
            )


class TestSaveReport:
    def test_json_and_csv_round_trip(self, tmp_path):
        markov = np.array([100.0, 50.25, 30.5])
        micro = np.array([100.0, 48.0, 33.125])
        rep = compare_traces(markov, micro, p_on_total=350.0)
        assert set(rep) == {"rmse", "max_abs_dev", "hold_satisfied_fraction", "p_on_total_kw"}
        rep.update(shortfall_events=[], degraded=False)
        jp, cp = tmp_path / "report.json", tmp_path / "paired.csv"
        save_validation_report(rep, markov, micro, jp, cp)
        data = json.loads(jp.read_text())
        assert data == rep
        assert list(data) == sorted(data)
        lines = cp.read_text().splitlines()
        assert lines[0] == "step,markov_kW,micro_kW"
        assert lines[2].split(",") == ["1", repr(50.25), repr(48.0)]
        save_validation_report(rep, markov, micro, tmp_path / "r2.json", tmp_path / "p2.csv")
        assert (tmp_path / "p2.csv").read_bytes() == cp.read_bytes()
