"""Tests for reach-and-hold characterization: kernels, the three boundary
routes, and set persistence."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tclflex.lp
import tclflex.markov
import tclflex.reachhold
from tclflex.errors import (
    FrontierMonotonicityError,
    InvalidConfigurationError,
    InvalidInputError,
    NumericalFailureError,
)
from tclflex.etp import DEFAULT_PARAMS
from tclflex.lp import LADDER, NUMERICAL_FAILURE, OPTIMAL, RETRY_OPTIONS, ColumnMatrix, LinearProgram, LpSolution, solve
from tclflex.markov import BinGrid, TransitionMatrix, output_vector
from tclflex.reachhold import (
    DEFAULT_N_GRID,
    EXACT_LP_CAP,
    INNER,
    OUTER,
    CharacterizedFleet,
    OperatingPoint,
    ReachHoldPoint,
    ReachHoldSet,
    _hold_block,
    _outer_columns,
    characterize,
    default_p_grid,
    delta_p_by_stepping,
    inner_boundary,
    inner_p_at,
    inner_point,
    invariant_support,
    load_set,
    outer_boundary,
    prune_to_frontier,
    response_kernels,
    save_set,
    solve_exact,
    solve_outer,
    sweep,
)
from tclflex.validation import discretize_plan

from conftest import DEADBAND, P_ON_TOTAL, T_AMB, T_SET, T_SET_NEW
from expm_reference import expm_step_maps
from exact_reference import reference_exact
from lp_reference import dense_exact_matrix, dense_outer_matrix
from inner_reference import reference_inner_point, reference_p_at

LP_TOL = 1e-6 * P_ON_TOTAL
# the exact LP at T=60 on the default 40-bin regime
EXACT_T60_KW = 1385.2568493518


@pytest.fixture(scope="module")
def char40():
    return characterize(point(40), T_max=120)


@pytest.fixture(scope="module")
def char10_120():
    # at 10 bins the first outer master settles every hold up to 60; a
    # 120-step hold needs a second
    return characterize(point(10), T_max=120)


def point(n_bins: int) -> OperatingPoint:
    """The default operating point on an n_bins grid over 18-24 C."""
    return OperatingPoint(
        DEFAULT_PARAMS, BinGrid(18.0, 24.0, n_bins), T_SET, T_SET_NEW, DEADBAND, T_AMB, P_ON_TOTAL
    )


def record_highs(monkeypatch):
    """Record (options, status) of every HiGHS run."""
    real = tclflex.lp.run_highs
    seen = []

    def record(lp, options=None):
        res = real(lp, options)
        seen.append((options, res.status))
        return res

    monkeypatch.setattr(tclflex.lp, "run_highs", record)
    return seen


@pytest.fixture(scope="module")
def dense_exact_40():
    """The dense-block exact oracle at the char40 regime, T -> (HiGHS runs,
    answer).  Its bin models come from the matrix-exponential integrator,
    on which HiGHS gives up at T=60 at its default tolerances."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tclflex.markov, "step_maps", expm_step_maps)
        ch = characterize(point(40), T_max=60)
    for T in (30, 45, 60):
        with pytest.MonkeyPatch.context() as mp:
            seen = record_highs(mp)
            out[T] = (seen, dense_exact(T, ch, ch.x_0, ch.A))
    return out


def replay(alpha: np.ndarray, ch, horizon: int) -> np.ndarray:
    """dP[0..horizon] of the inner allocation alpha, whose plan is
    alpha[k] x_0, by population stepping on fleet ch."""
    return delta_p_by_stepping(alpha[:, None] * ch.x_0[None, :], ch, horizon)


def kernel_response(alpha: np.ndarray, fleet, x_0: np.ndarray) -> np.ndarray:
    """dP[0..horizon] of the inner allocation alpha by the kernel
    algebra: dP[k] = sum_{m<k} alpha[m] (h_{k-m} - h_{a,k-m}) @ x_0."""
    s = (fleet.h - fleet.h_a)[1:] @ x_0
    return np.concatenate([[0.0], np.convolve(alpha, s)[: s.size]])


def hand_fleet(A, A_a, x_0, T_max, n_bins=1, p_on=10.0):
    """A fleet over hand-written matrices on an n_bins grid over 0-1 C,
    characterized for holds up to T_max steps; x_0 need not be stationary."""
    grid = BinGrid(0.0, 1.0, n_bins)
    mk = lambda M: TransitionMatrix(
        P=np.asarray(M, dtype=float), grid=grid, dt_minutes=1.0,
        T_set=0.5, T_amb=1.0, deadband=1.0,
    )
    A, A_a, c, x_0 = mk(A), mk(A_a), output_vector(grid, p_on), np.asarray(x_0, dtype=float)
    regime = {"dt_minutes": 1.0, "P_on_total_kw": p_on, "P_nom_kw": float(c @ x_0), "T_max_steps": T_max}
    return CharacterizedFleet(A, A_a, x_0, c, *response_kernels(A, A_a, c, horizon=T_max + 1), regime)


def tiny_fleet(A, A_a, T_max=9):
    """A 2-state (single-bin) fleet with hand-checkable rows, half on
    (p_nom = 5 kW of 10)."""
    return hand_fleet(A, A_a, [0.5, 0.5], T_max)


def with_capacities(ch, support):
    """ch with its occupancy replaced by the capacities of `support`."""
    return replace(ch, x_0=capacities(ch.x_0, support))


def full_support_exact(T, fleet, x_0, A):
    """Oracle for solve_exact: the exact LP written out over every state,
    hold rows then admissibility rows u[k] + sum A^{k-m} u[m] <= A^k x_0."""
    n = x_0.size
    d = fleet.h - fleet.h_a
    n_vars = T * n + 1
    rows, rhs = [], []
    for k in range(1, T + 1):
        row = np.zeros(n_vars)
        for m in range(k):
            row[m * n : (m + 1) * n] = -d[k - m]
        row[-1] = 1.0
        rows.append(row[None, :])
        rhs.append([0.0])
    for k in range(1, T):
        block = np.zeros((n, n_vars))
        for m in range(k):
            block[:, m * n : (m + 1) * n] = np.linalg.matrix_power(A.P, k - m)
        block[:, k * n : (k + 1) * n] += np.eye(n)
        rows.append(block)
        rhs.append(np.linalg.matrix_power(A.P, k) @ x_0)
    hi = np.full(n_vars, np.inf)
    hi[:n] = x_0
    c = np.zeros(n_vars)
    c[-1] = 1.0
    G = ColumnMatrix.from_dense(np.vstack(rows))
    sol = solve(LinearProgram(c=c, G=G, h=np.concatenate(rhs), lo=np.zeros(n_vars), hi=hi))
    assert sol.status == OPTIMAL
    return float(sol.z[-1])


def fill_hold_rows(G, d, cols, T):
    """Hold rows P - sum_{m<k} d[k-m][cols] @ v[m] <= 0, k = 1..T, written
    block by block into G[:T] for variables v[0..T-1] followed by P."""
    S = cols.size
    neg = -d[1 : T + 1][:, cols]  # neg[j] = -d[j+1][cols]
    for k in range(1, T + 1):
        G[k - 1, : k * S] = neg[k - 1 :: -1].ravel()  # m = 0..k-1 takes -d[k-m]
    G[:T, -1] = 1.0


def dense_exact(T, fleet, x_0, A):
    """Oracle for solve_exact: the same LP on the invariant support with
    admissibility written out through dense A^p blocks,
    u[k] + sum_{m<k} A^{k-m} u[m] <= A^k x_0.  Returns the LP answer."""
    cols = invariant_support(A, x_0)
    S = cols.size
    A_S = A.P[np.ix_(cols, cols)]
    n_vars = T * S + 1
    c_obj = np.zeros(n_vars)
    c_obj[-1] = 1.0
    G = np.zeros((T + (T - 1) * S, n_vars))
    h_vec = np.zeros(G.shape[0])
    fill_hold_rows(G, fleet.h - fleet.h_a, cols, T)
    Apow = np.eye(S)
    base = x_0[cols]
    for p in range(1, T):
        Apow = A_S @ Apow
        base = A_S @ base
        row0 = T + (p - 1) * S
        h_vec[row0 : row0 + S] = base
        G[row0 : row0 + S, p * S : (p + 1) * S] = np.eye(S)
        for k in range(p, T):  # the A^p block pairs u[k-p] with row k
            r = T + (k - 1) * S
            G[r : r + S, (k - p) * S : (k - p + 1) * S] = Apow
    lo = np.zeros(n_vars)
    hi = np.full(n_vars, np.inf)
    hi[:S] = x_0[cols]  # u[0] <= x[0]
    return solve(LinearProgram(c=c_obj, G=ColumnMatrix.from_dense(G), h=h_vec, lo=lo, hi=hi))


def full_column_outer(T, fleet, x_0):
    """Oracle for solve_outer: the relaxed LP with every (step, state)
    column on supp(x_0) written out at once, each capped at x_0, under
    the unit budget.  Returns the LP value."""
    cols = np.flatnonzero(x_0 > 0.0)
    S = cols.size
    n_vars = T * S + 1
    c_obj = np.zeros(n_vars)
    c_obj[-1] = 1.0
    G = np.zeros((T + 1, n_vars))
    h_vec = np.zeros(T + 1)
    fill_hold_rows(G, fleet.h - fleet.h_a, cols, T)
    G[T, : T * S] = 1.0  # total budget <= 1
    h_vec[T] = 1.0
    hi = np.append(np.tile(x_0[cols], T), np.inf)
    sol = solve(LinearProgram(c=c_obj, G=ColumnMatrix.from_dense(G), h=h_vec, lo=np.zeros(n_vars), hi=hi))
    assert sol.status == OPTIMAL
    return float(sol.z[-1])


def capacities(x_0, support):
    """The capacity vector an outer LP is posed on.  "xout" is the
    stationary occupancy x_0 itself, which leaves out the states no unit
    occupies; "full" mixes x_0 half and half with the uniform vector, so
    every state carries capacity.  Either holds one unit of mass."""
    if support == "xout":
        return x_0
    return 0.5 * x_0 + 0.5 / x_0.size


def knapsack_bound(T, fleet, x_0, duals):
    """Weak-duality bound from the duals of a master: with y its hold-row
    duals clipped to >= 0 and scaled to sum 1, each (step m, state s) on
    supp(x_0) prices at sum_{k>m} y[k-1] d[k-m][s]; fill capacity x_0[s]
    per column, best positive price first, until one unit is spent."""
    cols = np.flatnonzero(x_0 > 0.0)
    d = (fleet.h - fleet.h_a)[:, cols]
    y = np.clip(duals[:T], 0.0, None)
    y = y / y.sum()
    items = []
    for m in range(T):
        price = sum(y[k - 1] * d[k - m] for k in range(m + 1, T + 1))
        items += [(float(w), float(x_0[s])) for w, s in zip(price, cols)]
    bound, left = 0.0, 1.0
    for w, cap in sorted(items, reverse=True):
        if w <= 0.0 or left <= 0.0:
            break
        take = min(cap, left)
        bound += w * take
        left -= take
    return bound


IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
ABSORB_OFF = [[1.0, 1.0], [0.0, 0.0]]  # everything parks in the off state
MIXING = [[0.5, 0.5], [0.5, 0.5]]
PARTIAL = [[0.75, 0.75], [0.25, 0.25]]


class TestResponseKernels:
    def test_first_row_is_output_vector(self, char40):
        assert np.array_equal(char40.h[0], char40.c)
        assert np.array_equal(char40.h_a[0], char40.c)

    def test_stationary_baseline_is_flat(self, char40):
        # h_m @ x_0 = P_nom up to the stationary-solve residual
        drift = char40.h[1:] @ char40.x_0 - char40.p_nom_kw
        assert np.abs(drift).max() <= 1e-8 * P_ON_TOTAL

    def test_matches_matrix_powers(self, char10):
        A = char10.A.P
        row = char10.c @ np.linalg.matrix_power(A, 7)
        assert char10.h[7] == pytest.approx(row, abs=1e-9 * P_ON_TOTAL)

    def test_rejects_zero_horizon(self, char10):
        with pytest.raises(InvalidInputError):
            response_kernels(char10.A, char10.A_a, char10.c, horizon=0)

    def test_returns_two_arrays_from_the_readout(self, char10):
        h, h_a = response_kernels(char10.A, char10.A_a, char10.c, horizon=5)
        for H in (h, h_a):
            assert isinstance(H, np.ndarray) and H.shape == (6, char10.c.size)
            assert np.array_equal(H[0], char10.c)
        assert np.array_equal(h, char10.h[:6]) and np.array_equal(h_a, char10.h_a[:6])

    def test_short_kernels_are_refused(self, char10):
        # char10 holds kernels to T_max + 1 = 61 steps
        with pytest.raises(InvalidInputError, match="horizon too short"):
            solve_outer(62, char10)
        with pytest.raises(InvalidInputError, match="horizon too short"):
            solve_exact(62, replace(char10, h=char10.h[:30]))


class TestPlanInput:
    """A plan is one (T, n_states) array; delta_p_by_stepping checks it."""

    def test_wrong_shape_rejected(self):
        fleet = growing_support_system()
        for u in (np.zeros(4), np.zeros((2, 3)), np.zeros((2, 4, 1))):
            with pytest.raises(InvalidInputError, match="shape"):
                delta_p_by_stepping(u, fleet, 3)

    def test_negative_entries_rejected(self):
        fleet = growing_support_system()
        u = np.zeros((2, 4))
        u[1, 2] = -1e-9
        with pytest.raises(InvalidInputError, match="nonnegative"):
            delta_p_by_stepping(u, fleet, 3)
        u[1, 2] = -1e-13  # solver dust: accepted and clipped away
        assert np.array_equal(delta_p_by_stepping(u, fleet, 3), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN compares False against the nonnegativity bound, so the replay
        # and the unit discretization both need the finiteness check
        u = np.zeros((2, 4))
        u[1, 2] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            delta_p_by_stepping(u, growing_support_system(), 3)
        with pytest.raises(InvalidInputError, match="finite"):
            discretize_plan(u, n_units=10)


class TestDeltaP:
    def test_impulse_recovers_nominal_power(self, char40):
        ip = inner_point(char40.p_nom_kw, char40)
        assert ip.alpha[0] == 1.0 and not ip.alpha[1:].any()
        dp = replay(ip.alpha, char40, 1)
        assert dp[0] == 0.0
        assert dp[1] == pytest.approx(char40.p_nom_kw, abs=1e-9 * P_ON_TOTAL)

    def test_profile_plan_matches_stepping(self, char40):
        K = char40.h.shape[0] - 1
        ip = inner_point(0.6 * char40.p_nom_kw, char40)
        algebra = kernel_response(ip.alpha, char40, char40.x_0)
        assert algebra == pytest.approx(replay(ip.alpha, char40, K), abs=1e-8 * P_ON_TOTAL)

    def test_general_plan_matches_stepping(self, char40):
        # the hold rows the exact and outer LPs hand HiGHS: -(block @ u)
        # is the reduction trace dP[1..T] of any admissible plan u
        T = 30
        n = char40.x_0.size
        rng = np.random.default_rng(3)
        u = np.zeros((T, n))
        x = char40.x_0
        for k in range(T):
            u[k] = rng.uniform(0.0, 0.3, n) * x  # strictly admissible
            x = char40.A.P @ (x - u[k])
        d = char40.h - char40.h_a
        steps, states = np.repeat(np.arange(T), n), np.tile(np.arange(n), T)
        block = ColumnMatrix.from_entries([_hold_block(d, T, steps, states)], (T, T * n + 1))
        stepped = delta_p_by_stepping(u, char40, horizon=T)
        assert stepped[1:].max() > 0.1 * char40.p_nom_kw
        assert block @ np.append(u.ravel(), 0.0) == pytest.approx(-stepped[1:], abs=1e-8 * P_ON_TOTAL)  # at P = 0

    def test_empty_plan_reduces_nothing_off_stationarity(self):
        # the reduction is measured from the unactuated trajectory c A^k x_0,
        # which here jumps from 0 to 10 kW, not from c x_0
        dp = delta_p_by_stepping(np.zeros((6, 4)), growing_support_system(), 6)
        assert np.array_equal(dp, np.zeros(7))

    def test_matches_kernel_algebra_off_stationarity(self):
        # the LP hold rows and the replay agree even when x_0 is not stationary
        fleet = growing_support_system()
        u = np.zeros((3, 4))
        u[1, 2] = 0.5
        d = fleet.h - fleet.h_a
        steps, states = np.repeat(np.arange(3), 4), np.tile(np.arange(4), 3)
        block = ColumnMatrix.from_entries([_hold_block(d, 3, steps, states)], (3, 13))
        dp = delta_p_by_stepping(u, fleet, 3)
        assert dp[2] == pytest.approx(5.0)
        assert block @ np.append(u.ravel(), 0.0) == pytest.approx(-dp[1:], abs=1e-12)  # at P = 0

    def test_plan_above_the_unactuated_mass_replays_as_the_admissible_one(self, char40):
        # the replay moves at most the unactuated mass x[k]; asking for
        # twice x_0 at the first step is the plan that actuates all of it
        x_0 = char40.x_0
        admissible = np.zeros((3, x_0.size))
        admissible[0] = x_0
        excess = admissible.copy()
        excess[0] = 2.0 * x_0
        dp = delta_p_by_stepping(excess, char40, 10)
        assert np.array_equal(dp, delta_p_by_stepping(admissible, char40, 10))
        assert dp[1] == pytest.approx(char40.p_nom_kw, abs=1e-9 * P_ON_TOTAL)

    def test_leaky_matrix_refused(self):
        # A loses a tenth of the off state's mass at every step
        fleet = tiny_fleet([[0.8, 0.5], [0.1, 0.5]], MIXING)
        with pytest.raises(NumericalFailureError, match="column sums"):
            delta_p_by_stepping(np.zeros((2, 2)), fleet, 2)
        with pytest.raises(NumericalFailureError, match="column sums"):
            delta_p_by_stepping(np.zeros((2, 2)), tiny_fleet(MIXING, [[0.8, 0.5], [0.1, 0.5]]), 2)

    def test_nan_matrix_refused(self):
        # a NaN entry would otherwise replay to a NaN trace
        for A, A_a in (([[np.nan, 0.5], [0.5, 0.5]], MIXING), (MIXING, [[0.5, 0.5], [0.5, np.nan]])):
            with pytest.raises(NumericalFailureError, match="NaN"):
                delta_p_by_stepping(np.zeros((2, 2)), tiny_fleet(A, A_a), 2)


class TestAlphaLowerBound:
    """The greedy lower bounds alpha[k], read off `inner_point`."""

    def test_first_step_is_target_fraction(self):
        alpha = inner_point(2.0, tiny_fleet(IDENTITY, ABSORB_OFF)).alpha  # p_nom = 5
        assert alpha[0] == pytest.approx(0.4)

    def test_second_step_vanishes_without_recovery(self):
        # actuated mass that never draws power again: the committed
        # alpha[0] keeps covering the target, so the bound drops to zero
        alpha = inner_point(2.0, tiny_fleet(IDENTITY, ABSORB_OFF)).alpha
        assert alpha[1] == pytest.approx(0.0, abs=1e-15)

    def test_second_step_refills_under_full_recovery(self):
        # mixing actuated dynamics put half the unit mass back on at once,
        # so c A_a x_0 = p_nom: an actuated cohort saves nothing and no
        # finite allocation holds the target, from the first step on
        fleet = tiny_fleet(IDENTITY, MIXING)
        assert np.isinf(fleet.inner.alpha_1).all()
        ip = inner_point(2.0, fleet)
        assert ip.alpha[0] == 1.0 and not ip.alpha[1:].any()  # the budget goes at once

    def test_partial_recovery_divides_by_gain(self):
        # A_a leaves a quarter of the mass on each step: c A_a^m x_0 = 2.5
        # = p_nom / 2 for every m >= 1, so each unit of alpha buys half
        # its nominal share and the bounds below hold dP at exactly 2 kW
        fleet = tiny_fleet(IDENTITY, PARTIAL)
        ip = inner_point(2.0, fleet)
        assert ip.alpha[0] == pytest.approx(0.8)
        assert ip.alpha[1] == pytest.approx(0.0, abs=1e-15)
        assert kernel_response(ip.alpha, fleet, fleet.x_0)[1:3] == pytest.approx([2.0, 2.0])


class TestInnerPoint:
    def test_zero_target_runs_to_horizon(self, char40):
        ip = inner_point(0.0, char40)
        assert ip.point.T_hold_steps == 120
        assert ip.point.horizon_limited
        assert ip.alpha.sum() == 0.0

    def test_full_nominal_depletes_immediately(self, char40):
        ip = inner_point(char40.p_nom_kw, char40)
        assert ip.alpha[0] == pytest.approx(1.0) and not ip.alpha[1:].any()
        # the whole fleet parks off, so the hold survives at least until
        # the actuated cohort warms back into the new band
        assert ip.point.T_hold_steps >= 1

    def test_plan_certifies_by_stepping(self, char40):
        P = 0.6 * char40.p_nom_kw
        ip = inner_point(P, char40)
        T_h = ip.point.T_hold_steps
        assert T_h >= 1
        dp = replay(ip.alpha, char40, T_h)
        assert np.all(dp[1 : T_h + 1] >= P - 1e-9 * P_ON_TOTAL)

    def test_hold_ends_at_first_violation(self, char40):
        P = 0.8 * char40.p_nom_kw
        ip = inner_point(P, char40)
        T_h = ip.point.T_hold_steps
        assert not ip.point.horizon_limited
        assert replay(ip.alpha, char40, T_h + 1)[T_h + 1] < P - 1e-10 * P_ON_TOTAL

    def test_absorbing_synthetic_holds_forever(self):
        ip = inner_point(2.5, tiny_fleet(IDENTITY, ABSORB_OFF, T_max=19))
        assert ip.point.horizon_limited and ip.point.T_hold_steps == 19
        assert ip.alpha[0] == pytest.approx(0.5)
        assert ip.alpha[1:].sum() == pytest.approx(0.0, abs=1e-15)

    def test_no_gain_holds_nothing(self):
        # a fresh cohort that draws its full share again saves nothing:
        # the budget goes at once and no positive target holds a step
        ip = inner_point(2.0, tiny_fleet(IDENTITY, MIXING, T_max=19))
        assert ip.alpha[0] == 1.0
        assert ip.point.T_hold_steps == 0 and not ip.point.horizon_limited

    def test_target_outside_range_rejected(self, char40):
        with pytest.raises(InvalidInputError):
            inner_point(-1.0, char40)
        with pytest.raises(InvalidInputError):
            inner_point(char40.p_nom_kw * 1.01, char40)


class TestInnerBoundary:
    def test_frontier_monotone(self, char40):
        rh = inner_boundary(char40, DEFAULT_N_GRID)
        assert rh.points
        ts = [p.T_hold_steps for p in rh.points]
        ps = [p.P_hold_kw for p in rh.points]
        assert ts == sorted(ts)
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_p_at_bisection_is_tight(self, char40):
        T = 60
        p = inner_p_at(T, char40)
        assert inner_point(p, char40).point.T_hold_steps >= T
        if p < char40.p_nom_kw:  # interior boundary point: a nudge above must fail
            bumped = min(p + 1e-6 * char40.p_nom_kw, char40.p_nom_kw)
            assert inner_point(bumped, char40).point.T_hold_steps < T

    def test_one_deadband_raise_keeps_no_zero_hold(self):
        # a cohort raised by exactly one deadband still draws c A_a x_0, so
        # the full-nominal target holds no step; that sample claims nothing
        # and stays off the frontier
        ch = characterize(replace(point(40), T_set_new=T_SET + DEADBAND), T_max=120)
        assert inner_point(ch.p_nom_kw, ch).point.T_hold_steps == 0
        rh = inner_boundary(ch, DEFAULT_N_GRID)
        assert rh.points and all(p.T_hold_steps >= 1 for p in rh.points)

    def test_short_holds_reach_full_nominal(self, char40):
        assert inner_p_at(1, char40) == char40.p_nom_kw

    def test_default_p_grid_spans_to_nominal(self):
        g = default_p_grid(1000.0, 4)
        assert g == pytest.approx([250.0, 500.0, 750.0, 1000.0])


class TestInnerProfile:
    """Every target's allocation is the one profile, scaled and cut at the
    budget; the per-target recursion in inner_reference is the oracle."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        T_amb=st.floats(26.0, 38.0),
        raise_k=st.floats(1.0, 2.5),
        n_bins=st.sampled_from([10, 20, 40]),
        T_hold=st.integers(1, 240),
    )
    @example(T_amb=T_AMB, raise_k=T_SET_NEW - T_SET, n_bins=40, T_hold=60)
    def test_matches_per_target_reference(self, T_amb, raise_k, n_bins, T_hold):
        T_max = 240
        op = OperatingPoint(
            DEFAULT_PARAMS, BinGrid(18.0, 24.0, n_bins), T_SET, T_SET + raise_k, DEADBAND, T_amb, P_ON_TOTAL
        )
        ch = characterize(op, T_max=T_max)
        for P in default_p_grid(ch.p_nom_kw):
            ip = inner_point(float(P), ch)
            alpha, _, T_h, limited = reference_inner_point(float(P), ch)
            assert (ip.point.T_hold_steps, ip.point.horizon_limited) == (T_h, limited)
            assert np.abs(ip.alpha - alpha).max() <= 1e-12 * alpha.max()
        got = inner_p_at(T_hold, ch)
        assert got == pytest.approx(reference_p_at(T_hold, ch), abs=1e-9 * ch.p_nom_kw)

    def test_no_gain_profile_holds_inf(self):
        assert np.all(tiny_fleet(IDENTITY, MIXING, T_max=19).inner.alpha_1 == np.inf)

    def test_no_gain_zero_target_is_empty_plan(self):
        # 0 * inf would put NaN in the plan
        ip = inner_point(0.0, tiny_fleet(IDENTITY, MIXING, T_max=19))
        assert np.all(ip.alpha == 0.0)
        assert ip.point.T_hold_steps == 19 and ip.point.horizon_limited

    @pytest.mark.parametrize("P", [1e-9, 0.5, 2.0, 5.0])
    def test_no_gain_positive_target_depletes_at_once(self, P):
        ip = inner_point(P, tiny_fleet(IDENTITY, MIXING, T_max=19))  # p_nom = 5
        assert ip.alpha[0] == 1.0 and np.all(ip.alpha[1:] == 0.0)

    def test_depleted_plans_pass_the_budget_check(self, char40):
        # alpha[dep] = 1 - r C[dep-1] while the prefix is r alpha_1, so the
        # sum meets 1 only up to rounding, within the 1e-9 every target's
        # allocation must keep to
        depleted = 0
        for P in np.linspace(0.01, 1.0, 200) * char40.p_nom_kw:
            alpha = inner_point(float(P), char40).alpha
            assert np.all(alpha >= 0.0) and alpha.sum() <= 1.0 + 1e-9
            if reference_inner_point(float(P), char40)[1] is not None:
                depleted += 1
                assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert depleted > 0


def growing_support_system():
    """x_0 on state 1 only; A carries it on to 2 and then 3, so x_0 is not
    stationary.  Actuated units switch off for one step and then rebound,
    so a two-step hold splits the mass between states 1 and 2."""
    A = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]
    A_a = np.eye(4)[[3, 0, 0, 0]].T  # 1, 2, 3 -> 0 (off) -> 3 (on)
    return hand_fleet(A, A_a, [0.0, 1.0, 0.0, 0.0], T_max=5, n_bins=2)


class TestSolveExact:
    def test_single_step_recovers_nominal(self, char40):
        P, plan, _ = solve_exact(1, char40)
        assert P == pytest.approx(char40.p_nom_kw, abs=LP_TOL)
        assert plan.shape == (1, char40.x_0.size)

    def test_nonincreasing_in_hold_length(self, char10):
        vals = [solve_exact(T, char10)[0] for T in (2, 5, 10)]
        assert vals[0] >= vals[1] - LP_TOL >= vals[2] - 2 * LP_TOL

    def test_plan_is_admissible_and_achieves_value(self, char10):
        P, plan, _ = solve_exact(8, char10)
        dp = delta_p_by_stepping(plan, char10, 8)
        assert np.all(dp[1:9] >= P - LP_TOL)

    def test_size_cap_enforced(self, char40):
        too_big = EXACT_LP_CAP // char40.x_0.size + 1
        with pytest.raises(InvalidInputError, match="cap"):
            solve_exact(too_big, char40)

    def test_bad_hold_rejected(self, char10):
        with pytest.raises(InvalidInputError):
            solve_exact(0, char10)

    @pytest.mark.parametrize("fleet, T", [("char10", 2), ("char10", 5), ("char10", 10), ("char40", 20)])
    def test_matches_full_support_oracle(self, fleet, T, request):
        ch = request.getfixturevalue(fleet)
        P, plan, _ = solve_exact(T, ch)
        assert P == pytest.approx(full_support_exact(T, ch, ch.x_0, ch.A), abs=LP_TOL)
        off = np.setdiff1d(np.arange(ch.x_0.size), invariant_support(ch.A, ch.x_0))
        assert plan.shape == (T, ch.x_0.size)
        assert np.all(plan[:, off] == 0.0)

    def test_matches_oracle_when_support_grows(self):
        fleet = growing_support_system()
        assert invariant_support(fleet.A, fleet.x_0).tolist() == [1, 2, 3]
        for T in (1, 2, 3, 6):
            P, plan, _ = solve_exact(T, fleet)
            assert P == pytest.approx(full_support_exact(T, fleet, fleet.x_0, fleet.A), abs=1e-7)
            assert plan.shape == (T, 4)
            assert np.all(plan[:, 0] == 0.0)
        assert P == pytest.approx(5.0, abs=1e-7)
        assert plan[1, 2] == pytest.approx(0.5, abs=1e-7)

    def test_retried_instance_solves(self, dense_exact_40):
        # at the defaults HiGHS gives up on the dense-block T=60 LP (status
        # 4, no answer) and the tight-tolerance re-solve finishes it
        seen, sol = dense_exact_40[60]
        assert seen == [(None, 4), (RETRY_OPTIONS, 0)]
        assert sol.status == OPTIMAL
        assert sol.z[-1] == pytest.approx(EXACT_T60_KW, abs=LP_TOL)

    def test_lifted_instance_solves_at_first_attempt(self, char40, monkeypatch):
        seen = record_highs(monkeypatch)
        P, _, sol = solve_exact(60, char40)
        assert seen == [(None, 0)]
        assert sol.status == OPTIMAL
        assert P == pytest.approx(EXACT_T60_KW, abs=LP_TOL)

    @pytest.mark.parametrize(
        "T_amb, T_set_new, deadband, T, rungs",
        [
            # the defaults' plan replays 2.5e-4 kW short; tight tolerances fix it
            pytest.param(35.0, 23.0, 1.0, 45, 2, id="short-replay"),
            # a short replay, then an answer that fails certification
            pytest.param(29.0, 22.0, 0.5, 45, 3, id="short-replay-then-uncertified"),
            # both simplex rungs fail certification
            pytest.param(34.0, 21.0, 1.0, 60, 3, id="uncertified-twice"),
        ],
    )
    def test_refused_answers_go_down_the_ladder(self, T_amb, T_set_new, deadband, T, rungs, monkeypatch):
        # three of the eleven 40-bin survey pairs whose exact LP raised
        # before the ladder had its interior-point rung and took short
        # replays as refusals
        op = OperatingPoint(DEFAULT_PARAMS, BinGrid(18.0, 24.0, 40), T_SET, T_set_new, deadband, T_amb, P_ON_TOTAL)
        ch = characterize(op, T_max=T)
        seen = record_highs(monkeypatch)
        P, plan, sol = solve_exact(T, ch)
        assert [options for options, _ in seen] == list(LADDER[:rungs])
        assert sol.status == OPTIMAL
        assert delta_p_by_stepping(plan, ch, T)[1:].min() - P >= -1e-9 * P_ON_TOTAL

    @pytest.mark.parametrize("T", [30, 45, 60])
    def test_matches_dense_oracle(self, char40, dense_exact_40, T):
        P, plan, _ = solve_exact(T, char40)
        assert P == pytest.approx(dense_exact_40[T][1].z[-1], abs=LP_TOL)
        dp = delta_p_by_stepping(plan, char40, T)
        assert np.all(dp[1 : T + 1] >= P - LP_TOL)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        T_amb=st.floats(28.0, 36.0),
        raise_k=st.floats(0.5, 3.0),
        n_bins=st.sampled_from([10, 20, 40]),
        T=st.integers(1, EXACT_LP_CAP // 80),
    )
    @example(T_amb=T_AMB, raise_k=T_SET_NEW - T_SET, n_bins=40, T=20)
    def test_matches_lifted_reference(self, T_amb, raise_k, n_bins, T):
        # the u/w lifted LP of exact_reference poses the same feasible set
        op = OperatingPoint(
            DEFAULT_PARAMS, BinGrid(18.0, 24.0, n_bins), T_SET, T_SET + raise_k, DEADBAND, T_amb, P_ON_TOTAL
        )
        ch = characterize(op, T_max=T)
        P, plan, _ = solve_exact(T, ch)
        assert P == pytest.approx(reference_exact(T, ch, ch.x_0, ch.A)[0], abs=LP_TOL)
        dp = delta_p_by_stepping(plan, ch, T)
        assert dp[1:].min() - P >= -1e-9 * P_ON_TOTAL

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda z: z.__setitem__(slice(None, -2), 0.0), id="plan"),  # all mass at step 0
            pytest.param(lambda z: z.__setitem__(-2, z[-2] + 1e-8 * P_ON_TOTAL), id="value"),
        ],
    )
    def test_replay_rejects_corrupted_answer(self, char40, corrupt, monkeypatch):
        real = tclflex.reachhold.solve

        def corrupted(lp, warm=None):  # every rung's answer
            sol = real(lp, warm)
            if sol.status == OPTIMAL:
                corrupt(sol.z)
            return sol

        monkeypatch.setattr(tclflex.reachhold, "solve", corrupted)
        with pytest.raises(NumericalFailureError, match="replays"):
            solve_exact(60, char40)

    def test_lp_is_sparse(self, char40, monkeypatch):
        # pins the formulation, not a value: the unactuated mass w on S per
        # step, then P and the fixed one, with admissibility as inequality
        # rows (no equalities) and about half the lifted form's nonzeros
        real = tclflex.reachhold.solve
        lps = []
        monkeypatch.setattr(tclflex.reachhold, "solve", lambda lp, warm=None: lps.append(lp) or real(lp, warm))
        solve_exact(60, char40)
        (lp,) = lps
        S = invariant_support(char40.A, char40.x_0).size
        assert lp.n_vars == 60 * S + 2
        assert lp.E is None
        assert lp.G.shape == (60 + 60 * S, lp.n_vars)
        assert lp.G.value.size <= 16_069  # nonzeros as stored and handed to HiGHS

    def test_builds_no_dense_matrix(self, char40):
        # a dense G is 7.85 MB here, and a transposed copy of it as much again
        solve_exact(1, char40)  # loads HiGHS
        tracemalloc.start()
        try:
            solve_exact(60, char40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class LpCaptured(Exception):
    pass


def captured_exact_lp(T, ch) -> LinearProgram:
    """The LinearProgram solve_exact hands to `solve`, without solving it."""
    lps = []

    def capture(lp, warm=None):
        lps.append(lp)
        raise LpCaptured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tclflex.reachhold, "solve", capture)
        with pytest.raises(LpCaptured):
            solve_exact(T, ch)
    return lps[0]


def assert_bitwise_equal(got: ColumnMatrix, want: ColumnMatrix) -> None:
    assert got.shape == want.shape
    for name in ("start", "index", "value"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestSparseBuilders:
    """The column-wise exact and outer matrices equal the former dense
    construction of lp_reference, as HiGHS receives them: same nonzeros
    in the same order, bit for bit."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        T_amb=st.floats(28.0, 36.0),
        raise_k=st.floats(0.5, 3.0),
        n_bins=st.sampled_from([10, 20, 40]),
        T_share=st.floats(0.0, 1.0),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(T_amb=T_AMB, raise_k=T_SET_NEW - T_SET, n_bins=40, T_share=1.0, density=1.0, seed=0)
    def test_match_dense_reference(self, T_amb, raise_k, n_bins, T_share, density, seed):
        op = OperatingPoint(
            DEFAULT_PARAMS, BinGrid(18.0, 24.0, n_bins), T_SET, T_SET + raise_k, DEADBAND, T_amb, P_ON_TOTAL
        )
        T_cap = EXACT_LP_CAP // (2 * n_bins)  # 2 * n_bins states
        T = max(1, round(T_share * T_cap))
        ch = characterize(op, T_max=T)
        lp = captured_exact_lp(T, ch)
        assert_bitwise_equal(lp.G, ColumnMatrix.from_dense(dense_exact_matrix(T, ch, ch.x_0, ch.A)))

        # P, then the columns of a random active set on supp(x_0) with
        # the budget row, as solve_outer appends them to a master
        cols = np.flatnonzero(ch.x_0 > 0.0)
        S = cols.size
        idx = np.flatnonzero(np.random.default_rng(seed).random(T * S) < density)
        d = ch.h - ch.h_a
        steps, states = idx // S, cols[idx % S]
        p_column = ColumnMatrix.from_dense(np.r_[np.ones(T), 0.0][:, None])
        master = p_column.append(_outer_columns(d, T, steps, states))
        assert_bitwise_equal(master, ColumnMatrix.from_dense(dense_outer_matrix(d, T, steps, states)))

    @pytest.mark.parametrize("support", ["full", "xout"])
    @pytest.mark.parametrize("fleet, T", [("char10_120", 120), ("char40", 120)])
    def test_outer_masters_match_dense_reference(self, fleet, T, support, request, monkeypatch):
        # every master solve_outer poses: P, then every column added so
        # far, in the order of the rounds that added them
        ch = request.getfixturevalue(fleet)
        d = ch.h - ch.h_a
        blocks, lps = [], []
        hold_block, solve_lp = tclflex.reachhold._hold_block, tclflex.reachhold.solve
        monkeypatch.setattr(tclflex.reachhold, "_hold_block", lambda *a: blocks.append(a[2:]) or hold_block(*a))
        monkeypatch.setattr(tclflex.reachhold, "solve", lambda lp, warm=None: lps.append(lp) or solve_lp(lp, warm))
        solve_outer(T, with_capacities(ch, support))
        assert len(lps) == len(blocks) >= 2  # at least one round appends columns
        for i, lp in enumerate(lps):
            steps, states = (np.concatenate(part) for part in zip(*blocks[: i + 1]))
            assert_bitwise_equal(lp.G, ColumnMatrix.from_dense(dense_outer_matrix(d, T, steps, states)))


class TestInvariantSupport:
    @pytest.mark.parametrize("fleet", ["char10", "char40"])
    def test_closed_superset_of_occupancy(self, fleet, request):
        ch = request.getfixturevalue(fleet)
        inside = np.zeros(ch.x_0.size, dtype=bool)
        inside[invariant_support(ch.A, ch.x_0)] = True
        assert np.all(inside[ch.x_0 > 0.0])
        assert np.all(ch.A.P[np.ix_(~inside, inside)] == 0.0)
        # the stationary occupancy is itself closed here
        assert np.array_equal(inside, ch.x_0 > 0.0)

    def test_grows_along_transitions(self):
        grid = BinGrid(0.0, 1.0, 2)
        chain = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
        A = TransitionMatrix(P=chain, grid=grid, dt_minutes=1.0, T_set=0.5, T_amb=1.0, deadband=1.0)
        assert invariant_support(A, np.array([0.0, 1.0, 0.0, 0.0])).tolist() == [1, 2, 3]


class TestSolveOuter:
    def test_upper_bounds_exact_here(self, char10):
        for T in (2, 5, 10):
            exact, _, _ = solve_exact(T, char10)
            relax, _, _ = solve_outer(T, char10)
            assert min(relax, char10.p_nom_kw) >= exact - LP_TOL

    def test_nonincreasing_in_hold_length(self, char10):
        vals = [solve_outer(T, char10)[0] for T in (1, 5, 10, 20)]
        assert all(a >= b - LP_TOL for a, b in zip(vals, vals[1:]))

    def test_capacity_binds_on_synthetic(self):
        # units stay put unless actuated, and actuated units switch off for
        # good: only the on half of the fleet, actuated at step 0, holds,
        # so the cap u <= x_0 halves what the budget alone would allow
        fleet = tiny_fleet(IDENTITY, ABSORB_OFF, T_max=11)
        P, plan, _ = solve_outer(8, fleet)
        assert P == pytest.approx(5.0, abs=1e-7)
        assert plan[0, 1] == pytest.approx(0.5, abs=1e-9)
        assert np.all(plan <= fleet.x_0 + 1e-12)

    @pytest.mark.parametrize("support", ["full", "xout"])
    @pytest.mark.parametrize(
        "fleet, T",
        [("char10", 1), ("char10", 5), ("char10", 10), ("char10", 20), ("char40", 60), ("char40", 120)],
    )
    def test_matches_full_column_oracle(self, fleet, T, support, request):
        ch = request.getfixturevalue(fleet)
        x_0 = capacities(ch.x_0, support)
        P, u, sol = solve_outer(T, replace(ch, x_0=x_0))
        assert P == pytest.approx(full_column_outer(T, ch, x_0), abs=LP_TOL)
        # the last master's duals prove the value for every column
        assert knapsack_bound(T, ch, x_0, sol.duals_ineq) <= P * (1.0 + 1e-9)
        # its plan stays on supp(x_0), within the capacities and the
        # budget, and holds P
        assert u.shape == (T, x_0.size)
        assert np.all(u[:, x_0 <= 0.0] == 0.0)
        assert np.all(u <= x_0 + 1e-9)
        assert u.sum() <= 1.0 + 1e-9
        d = ch.h - ch.h_a
        held = [sum(d[k - m] @ u[m] for m in range(k)) for k in range(1, T + 1)]
        assert min(held) >= P - LP_TOL

    def test_failing_master_raises(self, char10, monkeypatch):
        failed = LpSolution(NUMERICAL_FAILURE, None, None, None)
        monkeypatch.setattr(tclflex.reachhold, "solve", lambda lp, warm=None: failed)
        with pytest.raises(NumericalFailureError, match="outer LP"):
            solve_outer(10, char10)

    @pytest.mark.parametrize("support", ["full", "xout"])
    @pytest.mark.parametrize("fleet, T", [("char10_120", 120), ("char40", 120)])
    def test_warm_masters_match_cold(self, fleet, T, support, request, monkeypatch):
        # each master is solved warm from the last; a cold solve of the
        # same LP, and a cold column generation, reach the same values
        ch = request.getfixturevalue(fleet)
        fleet = with_capacities(ch, support)
        real = tclflex.reachhold.solve
        masters = []

        def solve_recorded(lp, warm=None):
            masters.append((lp, real(lp, warm)))
            return masters[-1][1]

        with monkeypatch.context() as mp:
            cold_starts = record_highs(mp)
            mp.setattr(tclflex.reachhold, "solve", solve_recorded)
            P, _, _ = solve_outer(T, fleet)
        assert cold_starts == [(None, 0)]  # the first master only
        assert len(masters) >= 2  # so at least one master is solved warm
        for lp, sol in masters:
            assert sol.objective_value == pytest.approx(real(lp).objective_value, abs=LP_TOL)
        with monkeypatch.context() as mp:
            mp.setattr(tclflex.reachhold, "solve", lambda lp, warm=None: real(lp))
            P_cold, _, _ = solve_outer(T, fleet)
        assert P == pytest.approx(P_cold, abs=LP_TOL)

    def test_one_cold_start_per_hold(self, char40, monkeypatch):
        # guards the warm start against silently turning off
        solve_lp, masters = tclflex.reachhold.solve, []
        cold_starts = record_highs(monkeypatch)
        monkeypatch.setattr(tclflex.reachhold, "solve", lambda lp, warm=None: masters.append(lp) or solve_lp(lp, warm))
        holds = np.array([1, 5, 20, 60, 120])
        outer_boundary(char40, holds)
        assert cold_starts == [(None, 0)] * holds.size
        assert len(masters) > holds.size  # the longer holds take several rounds

    def test_round_cap_raises(self, char40, monkeypatch):
        monkeypatch.setattr(tclflex.reachhold, "OUTER_CG_MAX_ROUNDS", 1)
        with pytest.raises(NumericalFailureError, match="rounds"):
            solve_outer(120, char40)


class TestOuterBoundary:
    def test_points_clip_the_relaxed_values(self, char40):
        p_nom = char40.regime["P_nom_kw"]
        rh = outer_boundary(char40, np.array([5, 20, 60, 120]))
        assert rh.method == OUTER
        assert rh.points  # the longest hold always survives pruning
        for pt in rh.points:
            raw, _, _ = solve_outer(pt.T_hold_steps, char40)
            assert pt.raw_objective_kw == pytest.approx(raw)
            assert pt.P_hold_kw == pytest.approx(min(raw, p_nom))
            assert pt.P_hold_kw <= p_nom + 1e-9

    def test_synthetic_one_lp_per_hold(self, monkeypatch):
        fleet = tiny_fleet(IDENTITY, ABSORB_OFF, T_max=11)
        real = tclflex.reachhold.solve_outer
        solves = []
        monkeypatch.setattr(tclflex.reachhold, "solve_outer", lambda T, *args: solves.append(T) or real(T, *args))
        rh = outer_boundary(fleet, np.array([3, 6]))
        assert solves == [3, 6]
        # both holds reach P_nom, so pruning keeps only the longer one
        assert [p.T_hold_steps for p in rh.points] == [6]
        assert rh.points[0].P_hold_kw == pytest.approx(5.0)
        assert rh.points[0].raw_objective_kw == pytest.approx(5.0, abs=1e-7)

    def test_sandwich_against_inner(self, char10):
        for T in (5, 10):
            lo = inner_p_at(T, char10)
            mid, _, _ = solve_exact(T, char10)
            hi, _, _ = solve_outer(T, char10)
            assert lo <= mid + LP_TOL
            assert mid <= min(hi, char10.p_nom_kw) + LP_TOL

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        T_amb=st.floats(29.0, 35.0),
        raise_k=st.floats(0.5, 3.0),
        n_bins=st.sampled_from([10, 20]),
        T=st.integers(1, 20),
    )
    def test_sandwich_across_regimes(self, T_amb, raise_k, n_bins, T):
        op = OperatingPoint(
            DEFAULT_PARAMS, BinGrid(18.0, 24.0, n_bins), T_SET, T_SET + raise_k, DEADBAND, T_amb, P_ON_TOTAL
        )
        ch = characterize(op, T_max=T)
        lo = inner_p_at(T, ch)
        mid, _, _ = solve_exact(T, ch)
        hi, _, _ = solve_outer(T, ch)
        assert lo <= mid + LP_TOL
        assert mid <= min(hi, ch.p_nom_kw) + LP_TOL


class TestFrontierAssembly:
    def test_dominated_samples_dropped(self):
        pts = [
            ReachHoldPoint(P_hold_kw=100.0, T_hold_steps=10),
            ReachHoldPoint(P_hold_kw=90.0, T_hold_steps=5),  # dominated
            ReachHoldPoint(P_hold_kw=100.0, T_hold_steps=12),
            ReachHoldPoint(P_hold_kw=40.0, T_hold_steps=30),
            ReachHoldPoint(P_hold_kw=150.0, T_hold_steps=0),  # holds nothing
        ]
        rh = ReachHoldSet(points=prune_to_frontier(pts), method=INNER, regime={"dt_minutes": 1.0})
        assert [(p.T_hold_steps, p.P_hold_kw) for p in rh.points] == [(12, 100.0), (30, 40.0)]

    def test_last_bit_ties_go_to_the_longer_hold(self):
        # two LP values that differ in the last bit are one plateau
        P = 1394.377563774904
        tie = np.nextafter(np.nextafter(P, np.inf), np.inf)
        pts = [
            ReachHoldPoint(P_hold_kw=tie, T_hold_steps=8),
            ReachHoldPoint(P_hold_kw=P, T_hold_steps=12),
            ReachHoldPoint(P_hold_kw=P * (1.0 + 1e-8), T_hold_steps=5),
        ]
        rh = ReachHoldSet(points=prune_to_frontier(pts), method=INNER, regime={"dt_minutes": 1.0})
        assert [p.T_hold_steps for p in rh.points] == [5, 12]

    def test_duplicate_hold_rejected_directly(self):
        pts = [
            ReachHoldPoint(P_hold_kw=10.0, T_hold_steps=4),
            ReachHoldPoint(P_hold_kw=9.0, T_hold_steps=4),
        ]
        with pytest.raises(FrontierMonotonicityError, match="duplicate"):
            ReachHoldSet(points=pts, method=INNER, regime={"dt_minutes": 1.0})

    def test_increasing_frontier_rejected(self):
        pts = [
            ReachHoldPoint(P_hold_kw=10.0, T_hold_steps=4),
            ReachHoldPoint(P_hold_kw=50.0, T_hold_steps=9),
        ]
        with pytest.raises(FrontierMonotonicityError, match="increases"):
            ReachHoldSet(points=pts, method=INNER, regime={"dt_minutes": 1.0})

    def test_boundary_above_nominal_rejected(self):
        pts = [ReachHoldPoint(P_hold_kw=2000.0, T_hold_steps=4)]
        with pytest.raises(FrontierMonotonicityError, match="exceeds"):
            ReachHoldSet(
                points=pts, method=INNER,
                regime={"dt_minutes": 1.0, "P_nom_kw": 1400.0, "P_on_total_kw": 3500.0},
            )

    def test_point_validation(self):
        with pytest.raises(InvalidInputError):
            ReachHoldPoint(P_hold_kw=-1.0, T_hold_steps=3)
        with pytest.raises(InvalidInputError):
            ReachHoldPoint(P_hold_kw=float("nan"), T_hold_steps=3)
        with pytest.raises(InvalidInputError):
            ReachHoldPoint(P_hold_kw=1.0, T_hold_steps=-3)
        with pytest.raises(InvalidInputError, match="method"):
            ReachHoldSet(points=[], method="magic", regime={"dt_minutes": 1.0})


class TestCharacterize:
    def test_deterministic(self):
        a = characterize(point(10), T_max=10)
        b = characterize(point(10), T_max=10)
        assert np.array_equal(a.A.P, b.A.P)
        assert np.array_equal(a.A_a.P, b.A_a.P)
        assert np.array_equal(a.x_0, b.x_0)

    def test_nominal_power_near_duty_estimate(self, char40):
        duty = DEFAULT_PARAMS.duty_cycle(T_AMB, T_SET)
        assert char40.p_nom_kw == pytest.approx(duty * P_ON_TOTAL, rel=0.05)

    def test_regime_records_operating_point(self, char40):
        r = char40.regime
        assert r["T_set"] == T_SET and r["T_set_new"] == T_SET_NEW
        assert r["n_bins"] == 40 and r["P_on_total_kw"] == P_ON_TOTAL
        assert r["P_nom_kw"] == pytest.approx(char40.p_nom_kw)


class TestOperatingPoint:
    def test_regime_keys_and_values(self):
        r = point(10).regime(1400.0, 60)
        assert r == {
            "T_set": T_SET, "T_set_new": T_SET_NEW, "deadband": DEADBAND, "T_amb": T_AMB,
            "dt_minutes": 1.0, "T_min": 18.0, "T_max_grid": 24.0, "n_bins": 10,
            "P_on_total_kw": P_ON_TOTAL, "P_nom_kw": 1400.0, "T_max_steps": 60,
        }

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"dt_minutes": 0.0}, "dt_minutes"),
            ({"dt_minutes": -1.0}, "dt_minutes"),
            ({"P_on_total_kw": 0.0}, "P_on_total_kw"),
            ({"T_set": 18.4}, "T_set band"),
            ({"T_set_new": 23.6}, "T_set_new band"),
            ({"deadband": 7.0}, "strictly inside"),
        ]
        + [
            ({name: value}, f"{name} must be finite")
            for name in ("T_set", "T_set_new", "deadband", "T_amb", "P_on_total_kw", "dt_minutes")
            for value in (np.inf, -np.inf, np.nan)
        ],
    )
    def test_invalid_point_raises(self, change, match):
        with pytest.raises(InvalidConfigurationError, match=match):
            replace(point(10), **change)


class TestSweeps:
    def test_setpoint_sweep_produces_regimes(self):
        sets = sweep([replace(point(10), T_set_new=T) for T in (21.0, 22.0)], T_max=40, n_grid=5)
        assert [s.regime["T_set_new"] for s in sets] == [21.0, 22.0]
        assert all(s.method == INNER for s in sets)
        assert all(s.points for s in sets)

    def test_precool_lifts_nominal_power(self):
        base, pre = sweep([point(10), replace(point(10), T_set=19.0)], T_max=40, n_grid=5)
        assert pre.regime["T_set"] == 19.0
        assert pre.regime["P_nom_kw"] > base.regime["P_nom_kw"]


class TestSetPersistence:
    def test_round_trip_preserves_everything(self, char40, tmp_path):
        rh = outer_boundary(char40, np.array([5, 30, 90]))
        path = tmp_path / "outer.csv"
        save_set(rh, path)
        back = load_set(path)
        assert back.method == rh.method
        assert back.regime == pytest.approx(rh.regime)
        # each P_hold is written once, to the CSV
        assert all("P_hold_kW" not in p for p in json.loads((tmp_path / "outer.json").read_text())["points"])
        assert len(back.points) == len(rh.points)
        for p, q in zip(back.points, rh.points):
            assert (p.T_hold_steps, p.P_hold_kw) == (q.T_hold_steps, q.P_hold_kw)
            assert p.raw_objective_kw == q.raw_objective_kw
            assert p.horizon_limited == q.horizon_limited

    def test_rewrite_is_byte_identical(self, char40, tmp_path):
        rh = inner_boundary(char40, 2)
        save_set(rh, tmp_path / "a.csv")
        save_set(rh, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("P_on_total_kw", np.inf),
            ("P_nom_kw", np.nan),
            ("dt_minutes", np.inf),
            ("dt_minutes", np.nan),
            ("dt_minutes", 0.0),
            ("dt_minutes", -1.0),
        ],
    )
    def test_unusable_regime_number_rejected(self, char40, tmp_path, key, value):
        # json writes NaN and Infinity, and reads them back
        save_set(inner_boundary(char40, 2), tmp_path / "s.csv")
        sidecar = json.loads((tmp_path / "s.json").read_text())
        sidecar["regime"][key] = value
        (tmp_path / "s.json").write_text(json.dumps(sidecar))
        with pytest.raises(InvalidInputError, match=key):
            load_set(tmp_path / "s.csv")

    def test_foreign_header_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("time,power\n1,2\n")
        (tmp_path / "x.json").write_text(json.dumps({"method": INNER, "regime": {}}))
        with pytest.raises(InvalidInputError, match="header"):
            load_set(tmp_path / "x.csv")

    def test_horizon_limited_flag_survives(self, char40, tmp_path):
        ip = inner_point(0.0, char40)
        rh = ReachHoldSet(points=[ip.point], method=INNER, regime=char40.regime)
        save_set(rh, tmp_path / "h.csv")
        assert load_set(tmp_path / "h.csv").points[0].horizon_limited
