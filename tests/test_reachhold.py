"""Tests for reach-and-hold characterization: kernels, the three boundary
routes, the empirical outer-bound condition, and set persistence."""

import json
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
from tclflex.lp import NUMERICAL_FAILURE, OPTIMAL, RETRY_OPTIONS, LinearProgram, LpSolution, solve
from tclflex.markov import (
    TransitionMatrix,
    build_grid,
    output_vector,
    x_out_vector,
)
from tclflex.reachhold import (
    EXACT_LP_CAP,
    INNER,
    OUTER,
    ControlPlan,
    OperatingPoint,
    ReachHoldPoint,
    ResponseKernels,
    ReachHoldSet,
    _hold_block,
    characterize,
    check_outer_condition,
    default_p_grid,
    delta_p_by_stepping,
    inner_boundary,
    inner_p_at,
    inner_point,
    inner_profile,
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

from conftest import DEADBAND, P_ON_TOTAL, T_AMB, T_SET, T_SET_NEW
from expm_reference import expm_step_maps
from exact_reference import reference_exact
from inner_reference import reference_inner_point, reference_p_at

LP_TOL = 1e-6 * P_ON_TOTAL
# the exact LP at T=60 on the default 40-bin regime
EXACT_T60_KW = 1385.2568493518


@pytest.fixture(scope="module")
def char40():
    return characterize(point(40), T_max=120)


def point(n_bins: int) -> OperatingPoint:
    """The default operating point on an n_bins grid over 18-24 C."""
    return OperatingPoint(
        DEFAULT_PARAMS, build_grid(18.0, 24.0, n_bins), T_SET, T_SET_NEW, DEADBAND, T_AMB, P_ON_TOTAL
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
            out[T] = (seen, dense_exact(T, ch.kernels, ch.x_0, ch.A))
    return out


def tiny_system(A, A_a, horizon=10, p_on=10.0, A_out=None):
    """Kernels over a 2-state (single-bin) system with hand-checkable rows."""
    grid = build_grid(0.0, 1.0, 1)
    mk = lambda M: TransitionMatrix(
        P=np.asarray(M, dtype=float), grid=grid, dt_minutes=1.0,
        T_set=0.5, T_amb=1.0, deadband=1.0,
    )
    c = output_vector(grid, p_on)
    out = mk(A_out) if A_out is not None else None
    return response_kernels(mk(A), mk(A_a), c, horizon=horizon, A_out=out)


def full_support_exact(T, kernels, x_0, A):
    """Oracle for solve_exact: the exact LP written out over every state,
    hold rows then admissibility rows u[k] + sum A^{k-m} u[m] <= A^k x_0."""
    n = x_0.size
    d = kernels.h - kernels.h_a
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
    sol = solve(LinearProgram(c=c, G=np.vstack(rows), h=np.concatenate(rhs), lo=np.zeros(n_vars), hi=hi))
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


def dense_exact(T, kernels, x_0, A):
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
    fill_hold_rows(G, kernels.h - kernels.h_a, cols, T)
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
    return solve(LinearProgram(c=c_obj, G=G, h=h_vec, lo=lo, hi=hi))


def full_column_outer(T, kernels, x_out, support):
    """Oracle for solve_outer: the outer LP with every (step, state)
    column of the support written out at once.  Returns the LP value."""
    cols = np.flatnonzero(x_out > 0.0) if support == "xout" else np.arange(x_out.size)
    S = cols.size
    n_vars = T * S + 1
    c_obj = np.zeros(n_vars)
    c_obj[-1] = 1.0
    G = np.zeros((T + 1, n_vars))
    h_vec = np.zeros(T + 1)
    fill_hold_rows(G, kernels.h_out - kernels.h_a, cols, T)
    G[T, : T * S] = 1.0  # total budget <= 1
    h_vec[T] = 1.0
    sol = solve(LinearProgram(c=c_obj, G=G, h=h_vec, lo=np.zeros(n_vars)))
    assert sol.status == OPTIMAL
    return float(sol.z[-1])


def pricing_bound(T, kernels, x_out, support, duals):
    """Weak-duality bound from the hold-row duals of a master: with y
    clipped to >= 0 and scaled to sum 1, the largest price
    sum_{k>m} y[k-1] d[k-m][s] over every step m and support state s."""
    cols = np.flatnonzero(x_out > 0.0) if support == "xout" else np.arange(x_out.size)
    d = (kernels.h_out - kernels.h_a)[:, cols]
    y = np.clip(duals[:T], 0.0, None)
    y = y / y.sum()
    return max(
        float(sum(y[k - 1] * d[k - m] for k in range(m + 1, T + 1)).max()) for m in range(T)
    )


IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
ABSORB_OFF = [[1.0, 1.0], [0.0, 0.0]]  # everything parks in the off state
MIXING = [[0.5, 0.5], [0.5, 0.5]]
PARTIAL = [[0.75, 0.75], [0.25, 0.25]]


class TestResponseKernels:
    def test_first_row_is_output_vector(self, char40):
        assert np.array_equal(char40.kernels.h[0], char40.c.c)
        assert np.array_equal(char40.kernels.h_a[0], char40.c.c)

    def test_stationary_baseline_is_flat(self, char40):
        # h_m @ x_0 = P_nom up to the stationary-solve residual
        drift = char40.kernels.h[1:] @ char40.x_0 - char40.p_nom_kw
        assert np.abs(drift).max() <= 1e-8 * P_ON_TOTAL

    def test_matches_matrix_powers(self, char10):
        A = char10.A.P
        row = char10.c.c @ np.linalg.matrix_power(A, 7)
        assert char10.kernels.h[7] == pytest.approx(row, abs=1e-9 * P_ON_TOTAL)

    def test_rejects_zero_horizon(self, char10):
        with pytest.raises(InvalidInputError):
            response_kernels(char10.A, char10.A_a, char10.c, horizon=0)


class TestControlPlan:
    def test_exactly_one_form(self):
        with pytest.raises(InvalidInputError):
            ControlPlan()
        with pytest.raises(InvalidInputError):
            ControlPlan(u=np.zeros((2, 4)), alpha=np.zeros(2))

    def test_alpha_budget_capped(self):
        with pytest.raises(InvalidInputError, match="budget"):
            ControlPlan(alpha=np.array([0.7, 0.4]))

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidInputError):
            ControlPlan(alpha=np.array([-0.1]))
        with pytest.raises(InvalidInputError):
            ControlPlan(u=np.array([[-0.2, 0.0]]))

    def test_as_u_expands_profile(self):
        x_0 = np.array([0.25, 0.75])
        plan = ControlPlan(alpha=np.array([0.4, 0.6]))
        u = plan.as_u(x_0)
        assert u == pytest.approx(np.outer([0.4, 0.6], x_0))


class TestDeltaP:
    def test_impulse_recovers_nominal_power(self, char40):
        ip = inner_point(char40.p_nom_kw, char40.kernels, char40.x_0, T_max=120)
        assert ip.plan.alpha[0] == 1.0 and not ip.plan.alpha[1:].any()
        assert ip.response[0] == 0.0
        assert ip.response[1] == pytest.approx(char40.p_nom_kw, abs=1e-9 * P_ON_TOTAL)

    def test_profile_plan_matches_stepping(self, char40):
        K = char40.kernels.horizon
        ip = inner_point(0.6 * char40.p_nom_kw, char40.kernels, char40.x_0, T_max=120)
        stepped = delta_p_by_stepping(
            ip.plan, char40.A, char40.A_a, char40.c, char40.x_0, horizon=K
        )
        assert ip.response == pytest.approx(stepped, abs=1e-8 * P_ON_TOTAL)

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
        d = char40.kernels.h - char40.kernels.h_a
        block = _hold_block(d, T, np.repeat(np.arange(T), n), np.tile(np.arange(n), T))
        stepped = delta_p_by_stepping(
            ControlPlan(u=u), char40.A, char40.A_a, char40.c, char40.x_0, horizon=T
        )
        assert stepped[1:].max() > 0.1 * char40.p_nom_kw
        assert block @ u.ravel() == pytest.approx(-stepped[1:], abs=1e-8 * P_ON_TOTAL)

    def test_empty_plan_reduces_nothing_off_stationarity(self):
        # the reduction is measured from the unactuated trajectory c A^k x_0,
        # which here jumps from 0 to 10 kW, not from c x_0
        A, A_a, kernels, x_0 = growing_support_system()
        dp = delta_p_by_stepping(ControlPlan(alpha=np.zeros(6)), A, A_a, kernels.c, x_0, 6)
        assert np.array_equal(dp, np.zeros(7))

    def test_matches_kernel_algebra_off_stationarity(self):
        # the LP hold rows and the replay agree even when x_0 is not stationary
        A, A_a, kernels, x_0 = growing_support_system()
        u = np.zeros((3, 4))
        u[1, 2] = 0.5
        d = kernels.h - kernels.h_a
        block = _hold_block(d, 3, np.repeat(np.arange(3), 4), np.tile(np.arange(4), 3))
        dp = delta_p_by_stepping(ControlPlan(u=u), A, A_a, kernels.c, x_0, 3)
        assert dp[2] == pytest.approx(5.0)
        assert block @ u.ravel() == pytest.approx(-dp[1:], abs=1e-12)


class TestAlphaLowerBound:
    """The greedy lower bounds alpha[k], read off `inner_profile(...).point`."""

    def test_first_step_is_target_fraction(self):
        kernels = tiny_system(IDENTITY, ABSORB_OFF)
        x_0 = np.array([0.5, 0.5])  # p_nom = 5
        alpha = inner_profile(kernels, x_0, T_max=9).point(2.0).plan.alpha
        assert alpha[0] == pytest.approx(0.4)

    def test_second_step_vanishes_without_recovery(self):
        # actuated mass that never draws power again: the committed
        # alpha[0] keeps covering the target, so the bound drops to zero
        kernels = tiny_system(IDENTITY, ABSORB_OFF)
        x_0 = np.array([0.5, 0.5])
        alpha = inner_profile(kernels, x_0, T_max=9).point(2.0).plan.alpha
        assert alpha[1] == pytest.approx(0.0, abs=1e-15)

    def test_second_step_refills_under_full_recovery(self):
        # mixing actuated dynamics put half the unit mass back on at once,
        # so c A_a x_0 = p_nom: an actuated cohort saves nothing and no
        # finite allocation holds the target, from the first step on
        kernels = tiny_system(IDENTITY, MIXING)
        x_0 = np.array([0.5, 0.5])
        profile = inner_profile(kernels, x_0, T_max=9)
        assert np.isinf(profile.alpha_1).all()
        ip = profile.point(2.0)
        assert ip.depletion_step == 0 and ip.plan.alpha[0] == 1.0

    def test_partial_recovery_divides_by_gain(self):
        # A_a leaves a quarter of the mass on each step: c A_a^m x_0 = 2.5
        # = p_nom / 2 for every m >= 1, so each unit of alpha buys half
        # its nominal share and the bounds below hold dP at exactly 2 kW
        kernels = tiny_system(IDENTITY, PARTIAL)
        x_0 = np.array([0.5, 0.5])
        ip = inner_profile(kernels, x_0, T_max=9).point(2.0)
        assert ip.plan.alpha[0] == pytest.approx(0.8)
        assert ip.plan.alpha[1] == pytest.approx(0.0, abs=1e-15)
        assert ip.response[1:3] == pytest.approx([2.0, 2.0])

    def test_horizon_guard(self):
        kernels = tiny_system(IDENTITY, ABSORB_OFF, horizon=3)
        with pytest.raises(InvalidInputError):
            inner_profile(kernels, np.array([0.5, 0.5]), T_max=4)


class TestInnerPoint:
    def test_zero_target_runs_to_horizon(self, char40):
        ip = inner_point(0.0, char40.kernels, char40.x_0, T_max=120)
        assert ip.point.T_hold_steps == 120
        assert ip.point.horizon_limited
        assert ip.plan.alpha.sum() == 0.0

    def test_full_nominal_depletes_immediately(self, char40):
        ip = inner_point(char40.p_nom_kw, char40.kernels, char40.x_0, T_max=120)
        assert ip.depletion_step == 0
        assert ip.plan.alpha[0] == pytest.approx(1.0)
        # the whole fleet parks off, so the hold survives at least until
        # the actuated cohort warms back into the new band
        assert ip.point.T_hold_steps >= 1

    def test_plan_certifies_by_stepping(self, char40):
        P = 0.6 * char40.p_nom_kw
        ip = inner_point(P, char40.kernels, char40.x_0, T_max=120)
        T_h = ip.point.T_hold_steps
        assert T_h >= 1
        dp = delta_p_by_stepping(ip.plan, char40.A, char40.A_a, char40.c, char40.x_0, T_h)
        assert np.all(dp[1 : T_h + 1] >= P - 1e-9 * P_ON_TOTAL)

    def test_hold_ends_at_first_violation(self, char40):
        P = 0.8 * char40.p_nom_kw
        ip = inner_point(P, char40.kernels, char40.x_0, T_max=120)
        T_h = ip.point.T_hold_steps
        assert not ip.point.horizon_limited
        assert ip.response[T_h + 1] < P - 1e-10 * P_ON_TOTAL

    def test_absorbing_synthetic_holds_forever(self):
        kernels = tiny_system(IDENTITY, ABSORB_OFF, horizon=20)
        x_0 = np.array([0.5, 0.5])
        ip = inner_point(2.5, kernels, x_0, T_max=19)
        assert ip.point.horizon_limited and ip.point.T_hold_steps == 19
        assert ip.plan.alpha[0] == pytest.approx(0.5)
        assert ip.plan.alpha[1:].sum() == pytest.approx(0.0, abs=1e-15)

    def test_no_gain_holds_nothing(self):
        # a fresh cohort that draws its full share again saves nothing:
        # the budget goes at once and no positive target holds a step
        kernels = tiny_system(IDENTITY, MIXING, horizon=20)
        ip = inner_point(2.0, kernels, np.array([0.5, 0.5]), T_max=19)
        assert ip.depletion_step == 0
        assert ip.point.T_hold_steps == 0 and not ip.point.horizon_limited

    def test_target_outside_range_rejected(self, char40):
        with pytest.raises(InvalidInputError):
            inner_point(-1.0, char40.kernels, char40.x_0, T_max=120)
        with pytest.raises(InvalidInputError):
            inner_point(char40.p_nom_kw * 1.01, char40.kernels, char40.x_0, T_max=120)


class TestInnerBoundary:
    def test_frontier_monotone(self, char40):
        rh = inner_boundary(char40.kernels, char40.x_0, T_max=120, regime=char40.regime)
        assert rh.points
        ts = [p.T_hold_steps for p in rh.points]
        ps = [p.P_hold_kw for p in rh.points]
        assert ts == sorted(ts)
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_p_at_bisection_is_tight(self, char40):
        T = 60
        p = inner_p_at(T, char40.kernels, char40.x_0, T_max=120)
        assert inner_point(p, char40.kernels, char40.x_0, 120).point.T_hold_steps >= T
        if p < char40.p_nom_kw:  # interior boundary point: a nudge above must fail
            bumped = min(p + 1e-6 * char40.p_nom_kw, char40.p_nom_kw)
            assert inner_point(bumped, char40.kernels, char40.x_0, 120).point.T_hold_steps < T

    def test_short_holds_reach_full_nominal(self, char40):
        assert inner_p_at(1, char40.kernels, char40.x_0, T_max=120) == char40.p_nom_kw

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
            DEFAULT_PARAMS, build_grid(18.0, 24.0, n_bins), T_SET, T_SET + raise_k, DEADBAND, T_amb, P_ON_TOTAL
        )
        ch = characterize(op, T_max=T_max, with_outer=False)
        for P in default_p_grid(ch.p_nom_kw):
            ip = inner_point(float(P), ch.kernels, ch.x_0, T_max)
            alpha, depletion, T_h, limited = reference_inner_point(float(P), ch.kernels, ch.x_0, T_max)
            assert (ip.point.T_hold_steps, ip.point.horizon_limited, ip.depletion_step) == (T_h, limited, depletion)
            assert np.abs(ip.plan.alpha - alpha).max() <= 1e-12 * alpha.max()
        got = inner_p_at(T_hold, ch.kernels, ch.x_0, T_max)
        assert got == pytest.approx(reference_p_at(T_hold, ch.kernels, ch.x_0, T_max), abs=1e-9 * ch.p_nom_kw)

    def test_no_gain_profile_holds_inf(self):
        kernels = tiny_system(IDENTITY, MIXING, horizon=20)
        profile = inner_profile(kernels, np.array([0.5, 0.5]), T_max=19)
        assert np.all(profile.alpha_1 == np.inf)

    def test_no_gain_zero_target_is_empty_plan(self):
        # 0 * inf would put NaN in the plan
        kernels = tiny_system(IDENTITY, MIXING, horizon=20)
        ip = inner_point(0.0, kernels, np.array([0.5, 0.5]), T_max=19)
        assert not np.isnan(ip.plan.alpha).any() and not np.isnan(ip.response).any()
        assert np.all(ip.plan.alpha == 0.0)
        assert ip.depletion_step is None
        assert ip.point.T_hold_steps == 19 and ip.point.horizon_limited

    @pytest.mark.parametrize("P", [1e-9, 0.5, 2.0, 5.0])
    def test_no_gain_positive_target_depletes_at_once(self, P):
        kernels = tiny_system(IDENTITY, MIXING, horizon=20)
        ip = inner_point(P, kernels, np.array([0.5, 0.5]), T_max=19)  # p_nom = 5
        assert ip.depletion_step == 0
        assert ip.plan.alpha[0] == 1.0 and np.all(ip.plan.alpha[1:] == 0.0)

    def test_depleted_plans_pass_the_budget_check(self, char40):
        # alpha[dep] = 1 - r C[dep-1] while the prefix is r alpha_1, so the
        # sum meets 1 only up to rounding; ControlPlan allows 1e-9
        depleted = 0
        for P in np.linspace(0.01, 1.0, 200) * char40.p_nom_kw:
            ip = inner_point(float(P), char40.kernels, char40.x_0, T_max=120)
            if ip.depletion_step is not None:
                depleted += 1
                assert ip.plan.alpha.sum() == pytest.approx(1.0, abs=1e-12)
                ControlPlan(alpha=ip.plan.alpha)
        assert depleted > 0


def growing_support_system():
    """x_0 on state 1 only; A carries it on to 2 and then 3, so x_0 is not
    stationary.  Actuated units switch off for one step and then rebound,
    so a two-step hold splits the mass between states 1 and 2."""
    grid = build_grid(0.0, 1.0, 2)
    mk = lambda M: TransitionMatrix(
        P=np.asarray(M, dtype=float), grid=grid, dt_minutes=1.0,
        T_set=0.5, T_amb=1.0, deadband=1.0,
    )
    A = mk([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    A_a = mk(np.eye(4)[[3, 0, 0, 0]].T)  # 1, 2, 3 -> 0 (off) -> 3 (on)
    kernels = response_kernels(A, A_a, output_vector(grid, 10.0), horizon=6)
    return A, A_a, kernels, np.array([0.0, 1.0, 0.0, 0.0])


class TestSolveExact:
    def test_single_step_recovers_nominal(self, char40):
        P, plan, _ = solve_exact(1, char40.kernels, char40.x_0, char40.A, char40.A_a)
        assert P == pytest.approx(char40.p_nom_kw, abs=LP_TOL)
        assert plan.u.shape == (1, char40.x_0.size)

    def test_nonincreasing_in_hold_length(self, char10):
        vals = [solve_exact(T, char10.kernels, char10.x_0, char10.A, char10.A_a)[0] for T in (2, 5, 10)]
        assert vals[0] >= vals[1] - LP_TOL >= vals[2] - 2 * LP_TOL

    def test_plan_is_admissible_and_achieves_value(self, char10):
        P, plan, _ = solve_exact(8, char10.kernels, char10.x_0, char10.A, char10.A_a)
        dp = delta_p_by_stepping(plan, char10.A, char10.A_a, char10.c, char10.x_0, 8)
        assert np.all(dp[1:9] >= P - LP_TOL)

    def test_size_cap_enforced(self, char40):
        too_big = EXACT_LP_CAP // char40.x_0.size + 1
        with pytest.raises(InvalidInputError, match="cap"):
            solve_exact(too_big, char40.kernels, char40.x_0, char40.A, char40.A_a)

    def test_bad_hold_rejected(self, char10):
        with pytest.raises(InvalidInputError):
            solve_exact(0, char10.kernels, char10.x_0, char10.A, char10.A_a)

    @pytest.mark.parametrize("fleet, T", [("char10", 2), ("char10", 5), ("char10", 10), ("char40", 20)])
    def test_matches_full_support_oracle(self, fleet, T, request):
        ch = request.getfixturevalue(fleet)
        P, plan, _ = solve_exact(T, ch.kernels, ch.x_0, ch.A, ch.A_a)
        assert P == pytest.approx(full_support_exact(T, ch.kernels, ch.x_0, ch.A), abs=LP_TOL)
        off = np.setdiff1d(np.arange(ch.x_0.size), invariant_support(ch.A, ch.x_0))
        assert plan.u.shape == (T, ch.x_0.size)
        assert np.all(plan.u[:, off] == 0.0)

    def test_matches_oracle_when_support_grows(self):
        A, A_a, kernels, x_0 = growing_support_system()
        assert invariant_support(A, x_0).tolist() == [1, 2, 3]
        for T in (1, 2, 3, 6):
            P, plan, _ = solve_exact(T, kernels, x_0, A, A_a)
            assert P == pytest.approx(full_support_exact(T, kernels, x_0, A), abs=1e-7)
            assert plan.u.shape == (T, 4)
            assert np.all(plan.u[:, 0] == 0.0)
        assert P == pytest.approx(5.0, abs=1e-7)
        assert plan.u[1, 2] == pytest.approx(0.5, abs=1e-7)

    def test_retried_instance_solves(self, dense_exact_40):
        # at the defaults HiGHS gives up on the dense-block T=60 LP (status
        # 4, no answer) and the tight-tolerance re-solve finishes it
        seen, sol = dense_exact_40[60]
        assert seen == [(None, 4), (RETRY_OPTIONS, 0)]
        assert sol.status == OPTIMAL
        assert sol.z[-1] == pytest.approx(EXACT_T60_KW, abs=LP_TOL)

    def test_lifted_instance_solves_at_first_attempt(self, char40, monkeypatch):
        seen = record_highs(monkeypatch)
        P, _, sol = solve_exact(60, char40.kernels, char40.x_0, char40.A, char40.A_a)
        assert seen == [(None, 0)]
        assert sol.status == OPTIMAL
        assert P == pytest.approx(EXACT_T60_KW, abs=LP_TOL)

    @pytest.mark.parametrize("T", [30, 45, 60])
    def test_matches_dense_oracle(self, char40, dense_exact_40, T):
        P, plan, _ = solve_exact(T, char40.kernels, char40.x_0, char40.A, char40.A_a)
        assert P == pytest.approx(dense_exact_40[T][1].z[-1], abs=LP_TOL)
        dp = delta_p_by_stepping(plan, char40.A, char40.A_a, char40.c, char40.x_0, T)
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
            DEFAULT_PARAMS, build_grid(18.0, 24.0, n_bins), T_SET, T_SET + raise_k, DEADBAND, T_amb, P_ON_TOTAL
        )
        ch = characterize(op, T_max=T, with_outer=False)
        P, plan, _ = solve_exact(T, ch.kernels, ch.x_0, ch.A, ch.A_a)
        assert P == pytest.approx(reference_exact(T, ch.kernels, ch.x_0, ch.A)[0], abs=LP_TOL)
        dp = delta_p_by_stepping(plan, ch.A, ch.A_a, ch.c, ch.x_0, T)
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

        def corrupted(lp):
            sol = real(lp)
            corrupt(sol.z)
            return sol

        monkeypatch.setattr(tclflex.reachhold, "solve", corrupted)
        with pytest.raises(NumericalFailureError, match="replays"):
            solve_exact(60, char40.kernels, char40.x_0, char40.A, char40.A_a)

    def test_lp_is_sparse(self, char40, monkeypatch):
        # pins the formulation, not a value: the unactuated mass w on S per
        # step, then P and the fixed one, with admissibility as inequality
        # rows (no equalities) and about half the lifted form's nonzeros
        real = tclflex.reachhold.solve
        lps = []
        monkeypatch.setattr(tclflex.reachhold, "solve", lambda lp: lps.append(lp) or real(lp))
        solve_exact(60, char40.kernels, char40.x_0, char40.A, char40.A_a)
        (lp,) = lps
        S = invariant_support(char40.A, char40.x_0).size
        assert lp.n_vars == 60 * S + 2
        assert lp.E is None
        assert lp.G.shape == (60 + 60 * S, lp.n_vars)
        assert np.count_nonzero(lp.G) <= 16_069


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
        grid = build_grid(0.0, 1.0, 2)
        chain = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
        A = TransitionMatrix(P=chain, grid=grid, dt_minutes=1.0, T_set=0.5, T_amb=1.0, deadband=1.0)
        assert invariant_support(A, np.array([0.0, 1.0, 0.0, 0.0])).tolist() == [1, 2, 3]


class TestOuterCondition:
    def test_defaults_fail_and_report_location(self, char40):
        x_out = x_out_vector(char40.A.grid, T_SET, DEADBAND)
        rep = check_outer_condition(char40.kernels, x_out)
        assert not rep.holds
        assert rep.min_margin_kw < 0.0
        assert 1 <= rep.argmin_step <= rep.horizon
        assert 0 <= rep.argmin_state < char40.x_0.size
        m, s = rep.argmin_step, rep.argmin_state
        d_out = (char40.kernels.h_out[m] - char40.kernels.h_a[m]) @ x_out
        d = (char40.kernels.h[m] - char40.kernels.h_a[m])[s]
        assert rep.min_margin_kw == pytest.approx(d_out - d)

    def test_synthetic_domination_holds(self):
        kernels = tiny_system(ABSORB_OFF, ABSORB_OFF, A_out=IDENTITY)
        x_out = np.array([0.0, 1.0])
        rep = check_outer_condition(kernels, x_out)
        assert rep.holds
        assert rep.min_margin_kw == pytest.approx(10.0)

    def test_tied_minimum_reports_first_state(self):
        # state 1's margin is 1e-13 kW below state 0's: a rounding-level
        # tie, so the report names state 0 and keeps the exact minimum
        c = output_vector(build_grid(0.0, 1.0, 1), 10.0)
        h = np.array([[0.0, 0.0], [1.0, 1.0 + 1e-13]])
        zero = np.zeros_like(h)
        kernels = ResponseKernels(h=h, h_a=zero, h_out=zero, c=c, horizon=1)
        rep = check_outer_condition(kernels, np.array([0.0, 1.0]))
        assert (rep.argmin_step, rep.argmin_state) == (1, 0)
        assert rep.min_margin_kw == -(1.0 + 1e-13)

    def test_requires_squeezed_kernels(self, char40):
        bare = response_kernels(char40.A, char40.A_a, char40.c, horizon=5)
        with pytest.raises(InvalidInputError):
            check_outer_condition(bare, np.zeros(char40.x_0.size))

    def test_horizon_bounds_checked(self, char40):
        x_out = x_out_vector(char40.A.grid, T_SET, DEADBAND)
        with pytest.raises(InvalidInputError):
            check_outer_condition(char40.kernels, x_out, horizon=0)
        with pytest.raises(InvalidInputError):
            check_outer_condition(char40.kernels, x_out, horizon=10_000)


class TestSolveOuter:
    def test_upper_bounds_exact_here(self, char10):
        x_out = x_out_vector(char10.A.grid, T_SET, DEADBAND)
        for T in (2, 5, 10):
            exact, _, _ = solve_exact(T, char10.kernels, char10.x_0, char10.A, char10.A_a)
            relax, _, _ = solve_outer(T, char10.kernels, x_out, support="full")
            assert min(relax, char10.p_nom_kw) >= exact - LP_TOL

    def test_nonincreasing_in_hold_length(self, char10):
        x_out = x_out_vector(char10.A.grid, T_SET, DEADBAND)
        vals = [solve_outer(T, char10.kernels, x_out, support="full")[0] for T in (1, 5, 10, 20)]
        assert all(a >= b - LP_TOL for a, b in zip(vals, vals[1:]))

    def test_restricted_support_on_certified_synthetic(self):
        kernels = tiny_system(ABSORB_OFF, ABSORB_OFF, A_out=IDENTITY, horizon=12)
        x_out = np.array([0.0, 1.0])
        P_full, _, _ = solve_outer(8, kernels, x_out, support="full")
        P_xout, plan, _ = solve_outer(8, kernels, x_out, support="xout")
        # the anchored unit keeps drawing 10 kW forever, so both supports
        # spend the whole budget at step 0
        assert P_full == pytest.approx(10.0, abs=1e-7)
        assert P_xout == pytest.approx(10.0, abs=1e-7)
        assert plan.u[:, 0].sum() == pytest.approx(0.0, abs=1e-12)

    def test_bad_support_rejected(self, char10):
        x_out = x_out_vector(char10.A.grid, T_SET, DEADBAND)
        with pytest.raises(InvalidInputError, match="support"):
            solve_outer(2, char10.kernels, x_out, support="everything")

    @pytest.mark.parametrize("support", ["full", "xout"])
    @pytest.mark.parametrize(
        "fleet, T",
        [("char10", 1), ("char10", 5), ("char10", 10), ("char10", 20), ("char40", 60), ("char40", 120)],
    )
    def test_matches_full_column_oracle(self, fleet, T, support, request):
        ch = request.getfixturevalue(fleet)
        x_out = x_out_vector(ch.A.grid, T_SET, DEADBAND)
        P, plan, sol = solve_outer(T, ch.kernels, x_out, support=support)
        assert P == pytest.approx(full_column_outer(T, ch.kernels, x_out, support), abs=LP_TOL)
        # the last master's duals prove the value for every column
        assert pricing_bound(T, ch.kernels, x_out, support, sol.duals_ineq) <= P * (1.0 + 1e-9)
        # its plan stays on the support, within the budget, and holds P
        u = plan.u
        assert u.shape == (T, x_out.size)
        if support == "xout":
            assert np.all(u[:, x_out <= 0.0] == 0.0)
        assert u.sum() <= 1.0 + 1e-9
        d = ch.kernels.h_out - ch.kernels.h_a
        held = [sum(d[k - m] @ u[m] for m in range(k)) for k in range(1, T + 1)]
        assert min(held) >= P - LP_TOL

    def test_failing_master_raises(self, char10, monkeypatch):
        x_out = x_out_vector(char10.A.grid, T_SET, DEADBAND)
        failed = LpSolution(NUMERICAL_FAILURE, None, None, None)
        monkeypatch.setattr(tclflex.reachhold, "solve", lambda lp: failed)
        with pytest.raises(NumericalFailureError, match="outer LP"):
            solve_outer(10, char10.kernels, x_out, support="full")

    def test_round_cap_raises(self, char40, monkeypatch):
        x_out = x_out_vector(char40.A.grid, T_SET, DEADBAND)
        monkeypatch.setattr(tclflex.reachhold, "OUTER_CG_MAX_ROUNDS", 1)
        with pytest.raises(NumericalFailureError, match="rounds"):
            solve_outer(60, char40.kernels, x_out, support="full")


class TestOuterBoundary:
    def test_unverified_falls_back_to_full_support(self, char40):
        x_out = x_out_vector(char40.A.grid, T_SET, DEADBAND)
        p_nom = char40.regime["P_nom_kw"]
        rh = outer_boundary(char40.kernels, x_out, np.array([5, 20, 60, 120]), char40.regime)
        assert rh.method == OUTER
        assert rh.verified is False
        assert rh.condition is not None and not rh.condition.holds
        assert rh.points  # the longest hold always survives pruning
        for pt in rh.points:
            raw_full, _, _ = solve_outer(pt.T_hold_steps, char40.kernels, x_out, support="full")
            assert pt.raw_objective_kw == pytest.approx(raw_full)
            assert pt.P_hold_kw == pytest.approx(min(raw_full, p_nom))
            assert pt.P_hold_kw <= p_nom + 1e-9

    def test_certified_synthetic_uses_tighter_support(self, monkeypatch):
        kernels = tiny_system(ABSORB_OFF, ABSORB_OFF, A_out=IDENTITY, horizon=12)
        x_out = np.array([0.0, 1.0])
        regime = {"P_nom_kw": 5.0, "dt_minutes": 1.0, "P_on_total_kw": 10.0}
        real = tclflex.reachhold.solve_outer
        solves = []

        def counted(T, *args, support):
            solves.append((T, support))
            return real(T, *args, support=support)

        monkeypatch.setattr(tclflex.reachhold, "solve_outer", counted)
        rh = outer_boundary(kernels, x_out, np.array([3, 6]), regime)
        assert rh.verified is True
        assert solves == [(3, "xout"), (6, "xout")]  # one LP per hold
        # both holds clip to P_nom, so pruning keeps only the longer one
        assert len(rh.points) == 1
        pt = rh.points[0]
        assert pt.T_hold_steps == 6
        assert pt.P_hold_kw == pytest.approx(5.0)
        assert pt.raw_objective_kw == pytest.approx(10.0, abs=1e-7)

    def test_sandwich_against_inner(self, char10):
        x_out = x_out_vector(char10.A.grid, T_SET, DEADBAND)
        for T in (5, 10):
            lo = inner_p_at(T, char10.kernels, char10.x_0, T_max=60)
            mid, _, _ = solve_exact(T, char10.kernels, char10.x_0, char10.A, char10.A_a)
            hi, _, _ = solve_outer(T, char10.kernels, x_out, support="full")
            assert lo <= mid + LP_TOL
            assert mid <= min(hi, char10.p_nom_kw) + LP_TOL


class TestFrontierAssembly:
    def test_dominated_samples_dropped(self):
        pts = [
            ReachHoldPoint(P_hold_kw=100.0, T_hold_steps=10),
            ReachHoldPoint(P_hold_kw=90.0, T_hold_steps=5),  # dominated
            ReachHoldPoint(P_hold_kw=100.0, T_hold_steps=12),
            ReachHoldPoint(P_hold_kw=40.0, T_hold_steps=30),
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
        assert np.array_equal(a.A_out.P, b.A_out.P)
        assert np.array_equal(a.x_0, b.x_0)

    def test_nominal_power_near_duty_estimate(self, char40):
        duty = DEFAULT_PARAMS.duty_cycle(T_AMB, T_SET)
        assert char40.p_nom_kw == pytest.approx(duty * P_ON_TOTAL, rel=0.05)

    def test_regime_records_operating_point(self, char40):
        r = char40.regime
        assert r["T_set"] == T_SET and r["T_set_new"] == T_SET_NEW
        assert r["n_bins"] == 40 and r["P_on_total_kw"] == P_ON_TOTAL
        assert r["P_nom_kw"] == pytest.approx(char40.p_nom_kw)

    def test_squeezed_system_has_narrow_band(self, char40):
        assert char40.A_out.T_set == pytest.approx(T_SET - DEADBAND / 2)
        assert char40.A_out.deadband == pytest.approx(char40.A.grid.delta_tau)


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
        x_out = x_out_vector(char40.A.grid, T_SET, DEADBAND)
        rh = outer_boundary(char40.kernels, x_out, np.array([5, 30, 90]), char40.regime)
        path = tmp_path / "outer.csv"
        save_set(rh, path)
        back = load_set(path)
        assert back.method == rh.method
        assert back.regime == pytest.approx(rh.regime)
        assert back.condition.holds == rh.condition.holds
        assert back.condition.min_margin_kw == rh.condition.min_margin_kw
        assert len(back.points) == len(rh.points)
        for p, q in zip(back.points, rh.points):
            assert (p.T_hold_steps, p.P_hold_kw) == (q.T_hold_steps, q.P_hold_kw)
            assert p.raw_objective_kw == q.raw_objective_kw
            assert p.horizon_limited == q.horizon_limited

    def test_rewrite_is_byte_identical(self, char40, tmp_path):
        rh = inner_boundary(
            char40.kernels, char40.x_0, T_max=120,
            p_grid=np.array([300.0, 900.0]), regime=char40.regime,
        )
        save_set(rh, tmp_path / "a.csv")
        save_set(rh, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_foreign_header_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("time,power\n1,2\n")
        (tmp_path / "x.json").write_text(json.dumps({"method": INNER, "regime": {}}))
        with pytest.raises(InvalidInputError, match="header"):
            load_set(tmp_path / "x.csv")

    def test_horizon_limited_flag_survives(self, char40, tmp_path):
        ip = inner_point(0.0, char40.kernels, char40.x_0, T_max=120)
        rh = ReachHoldSet(points=[ip.point], method=INNER, regime=char40.regime)
        save_set(rh, tmp_path / "h.csv")
        assert load_set(tmp_path / "h.csv").points[0].horizon_limited
