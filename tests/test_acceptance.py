"""Acceptance gate: one test per shipped guarantee, at stated tolerance.

Run with -v to get one pass/fail line per criterion.  Each test is
self-contained apart from the shared default-regime characterization.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from tclflex import reachhold
from tclflex.aggregation import combined_set, query_p_at_t, query_t_at_p
from tclflex.cli import EXIT_NUMERICAL, EXIT_OK, main
from tclflex.etp import DEFAULT_PARAMS, FleetSpec, FleetStepper, sample_fleet, simulate_fleet
from tclflex.markov import BinGrid
from tclflex.reachhold import (
    OUTER_CG_GAP_REL,
    OperatingPoint,
    characterize,
    default_p_grid,
    delta_p_by_stepping,
    inner_boundary,
    inner_p_at,
    inner_point,
    solve_exact,
    solve_outer,
    sweep,
)
from tclflex.scenario import resolve_config, run
from tclflex.validation import burn_in, compare_traces

P_ON = 3500.0
T_AMB = 32.0
T_SET = 20.0
T_SET_NEW = 22.0
DEADBAND = 1.0


@pytest.fixture(scope="module")
def fleet40():
    """Shipped-default regime: 40-bin grid, 20 -> 22 step, 8-hour horizon."""
    return characterize(
        OperatingPoint(DEFAULT_PARAMS, BinGrid(18.0, 24.0, 40), T_SET, T_SET_NEW, DEADBAND, T_AMB, P_ON),
        T_max=480,
    )


def test_criterion_01_sandwich_inner_exact_outer():
    t0 = time.perf_counter()
    ch = characterize(
        OperatingPoint(DEFAULT_PARAMS, BinGrid(18.0, 24.0, 10), T_SET, T_SET_NEW, DEADBAND, T_AMB, P_ON),
        T_max=60,
    )
    tol = 1e-6 * P_ON
    gaps = []
    for T in (5, 10, 20, 40):
        p_inner = inner_p_at(T, ch)
        p_exact = solve_exact(T, ch)[0]
        raw = solve_outer(T, ch)[0]
        p_outer = min(raw, ch.p_nom_kw)
        assert p_inner <= p_exact + tol, f"T={T}: inner {p_inner} > exact {p_exact}"
        assert p_exact <= p_outer + tol, f"T={T}: exact {p_exact} > outer {p_outer}"
        # on this grid c A_a x_0 is 2.6 kW, not 0: the inner side must
        # still reach near the exact value instead of collapsing to 0
        assert p_inner >= 0.95 * p_exact, f"T={T}: inner {p_inner} far below exact {p_exact}"
        gaps.append((T, p_exact - p_inner, p_outer - p_exact))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"sandwich took {elapsed:.1f}s"
    print(f"[criterion 1] PASS sandwich holds at T=5,10,20,40 ({elapsed:.1f}s): {gaps}")


def test_criterion_01_sandwich_at_paper_scale(fleet40):
    t0 = time.perf_counter()
    tol = 1e-6 * P_ON
    gaps = []
    for T in (30, 60):
        p_inner = inner_p_at(T, fleet40)
        p_exact = solve_exact(T, fleet40)[0]
        raw = solve_outer(T, fleet40)[0]
        p_outer = min(raw, fleet40.p_nom_kw)
        assert p_inner <= p_exact + tol, f"T={T}: inner {p_inner} > exact {p_exact}"
        assert p_exact <= p_outer + tol, f"T={T}: exact {p_exact} > outer {p_outer}"
        gaps.append((T, p_exact - p_inner, p_outer - p_exact))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 1] PASS 40-bin sandwich holds at T=30,60 ({elapsed:.1f}s): {gaps}")


def test_criterion_02_inner_plans_feasible_when_repropagated(fleet40):
    t0 = time.perf_counter()
    tol = 1e-9 * P_ON
    worst = np.inf
    for P in default_p_grid(fleet40.p_nom_kw, 20):
        ip = inner_point(P, fleet40)
        T_h = ip.point.T_hold_steps
        u = ip.alpha[:, None] * fleet40.x_0[None, :]
        dp = delta_p_by_stepping(u, fleet40, horizon=max(T_h, 1))
        margin = float((dp[1 : T_h + 1] - P).min()) if T_h >= 1 else 0.0
        worst = min(worst, margin)
        assert margin >= -tol, f"P={P:.1f} kW, T={T_h}: hold margin {margin} kW"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"feasibility check took {elapsed:.1f}s"
    print(f"[criterion 2] PASS 20/20 plans feasible, worst margin {worst:.3e} kW ({elapsed:.1f}s)")


def test_criterion_02_inner_plans_feasible_with_partial_raise():
    # a raise of exactly one deadband leaves c A_a x_0 = 74.7 kW on: the
    # inner recursion must discount it, and every hold it claims must
    # survive re-propagation from the first step on
    t0 = time.perf_counter()
    ch = characterize(
        OperatingPoint(DEFAULT_PARAMS, BinGrid(18.0, 24.0, 40), T_SET, T_SET + DEADBAND, DEADBAND, T_AMB, P_ON),
        T_max=480,
    )
    assert float(ch.h_a[1] @ ch.x_0) > 0.05 * ch.p_nom_kw
    tol = 1e-9 * P_ON
    worst = np.inf
    for P in default_p_grid(ch.p_nom_kw):
        ip = inner_point(P, ch)
        T_h = ip.point.T_hold_steps
        u = ip.alpha[:, None] * ch.x_0[None, :]
        dp = delta_p_by_stepping(u, ch, horizon=max(T_h, 1))
        margin = float((dp[1 : T_h + 1] - P).min()) if T_h >= 1 else 0.0
        worst = min(worst, margin)
        assert margin >= -tol, f"P={P:.1f} kW, T={T_h}: hold margin {margin} kW"
    elapsed = time.perf_counter() - t0
    print(f"[criterion 2] PASS 50/50 plans feasible at a one-deadband raise, worst margin {worst:.3e} kW ({elapsed:.1f}s)")


def test_criterion_03_actuated_on_power_structural_zero(fleet40):
    # setpoint shift (2 C) >= deadband (1 C): every actuated unit lands
    # below its new band, so the one-step actuated ON power vanishes
    residual = abs(float(fleet40.h_a[1] @ fleet40.x_0))
    assert residual <= 1e-12 * P_ON, f"|c A_a x_0| = {residual} kW"
    print(f"[criterion 3] PASS |c A_a x_0| = {residual:.3e} kW <= {1e-12 * P_ON:.1e}")


# the relaxed upper bound at the shipped 40-bin regime, kW
OUTER_40_KW = {90: 1298.83, 120: 1027.44, 240: 614.62, 480: 387.82}


def test_criterion_04_upper_bound_proved_at_40_bins(fleet40):
    # the relaxed LP (hold rows, unit budget, 0 <= u[k] <= x_0) admits
    # every admissible plan, so its value bounds exact from above; the
    # fractional knapsack of the final master's prices, recomputed here
    # from its duals alone, proves that value for every column
    t0 = time.perf_counter()
    x_0 = fleet40.x_0
    cols = np.flatnonzero(x_0 > 0.0)
    d = (fleet40.h - fleet40.h_a)[:, cols]
    raw60 = solve_outer(60, fleet40)[0]
    assert raw60 == pytest.approx(fleet40.p_nom_kw, abs=1e-9 * P_ON), "outer below P_nom at T=60"
    gaps = []
    for T, want in OUTER_40_KW.items():
        P, _, sol = solve_outer(T, fleet40)
        assert abs(P - want) <= 0.01, f"T={T}: outer {P} kW, expected {want} kW"
        y = np.clip(sol.duals_ineq[:T], 0.0, None)
        y /= y.sum()
        price = np.concatenate([y[m:] @ d[1 : T - m + 1] for m in range(T)])
        cap = np.tile(x_0[cols], T)
        order = np.argsort(-price)
        order = order[price[order] > 0.0]
        before = np.cumsum(cap[order]) - cap[order]
        bound = float(price[order] @ np.clip(1.0 - before, 0.0, cap[order]))
        assert abs(bound - P) <= OUTER_CG_GAP_REL * P, f"T={T}: knapsack bound {bound} kW, value {P} kW"
        gaps.append((T, bound - P))
    elapsed = time.perf_counter() - t0
    print(f"[criterion 4] PASS outer = P_nom at T=60 and proved at T=90..480 ({elapsed:.1f}s): {gaps}")


def test_criterion_05_markov_vs_micro_full_step(fleet40):
    t0 = time.perf_counter()
    horizon = 480
    dp = delta_p_by_stepping(fleet40.x_0[None, :], fleet40, horizon)
    markov = fleet40.p_nom_kw - dp
    fleet = sample_fleet(
        FleetSpec(
            n_units=1000, nominal=DEFAULT_PARAMS, heterogeneity=0.15,
            deadband=DEADBAND, T_amb=T_AMB, T_set=T_SET, seed=2024,
        )
    )
    stepper = FleetStepper(fleet, 1.0)
    burn_in(stepper, 240)
    fleet.T_set = np.full(1000, T_SET_NEW)
    micro = simulate_fleet(stepper, horizon)
    report = compare_traces(markov, micro, P_ON)
    assert report["rmse"] <= 0.10, f"normalized RMSE {report['rmse']:.4f} > 0.10"

    assert markov[1:].min() <= 0.05 * fleet40.p_nom_kw, "bin-model demand does not collapse"
    assert micro[1:].min() <= 0.05 * fleet40.p_nom_kw, "micro demand does not collapse"
    k_m = int(np.argmin(micro))
    micro_peak = float(micro[k_m:].max())
    assert micro_peak > fleet40.p_nom_kw, (
        f"micro restart peak {micro_peak:.1f} kW never clears P_nom {fleet40.p_nom_kw:.1f} kW"
    )
    # the mean-field chain rebounds above its own post-step settling level
    # rather than above P_nom; its restart surge is damped by design
    k_b = int(np.argmin(markov))
    chain_peak = float(markov[k_b:].max())
    chain_settle = float(markov[-1])
    assert chain_peak > chain_settle + 0.02 * P_ON, (
        f"chain restart peak {chain_peak:.1f} kW not above settling {chain_settle:.1f} kW"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"step comparison took {elapsed:.1f}s"
    print(
        f"[criterion 5] PASS rmse {report['rmse']:.4f}, micro peak {micro_peak:.1f} kW > "
        f"P_nom {fleet40.p_nom_kw:.1f} kW, chain peak {chain_peak:.1f} kW > "
        f"settle {chain_settle:.1f} kW ({elapsed:.1f}s)"
    )


def test_criterion_06_inner_holds_verified_by_micro(tmp_path):
    t0 = time.perf_counter()
    cfg = resolve_config("validate", preset="fig7")
    assert cfg["validate"]["hold_steps"] == [120, 240, 480]  # 2, 4, 8 hours
    artifacts, degraded = run("validate", cfg, tmp_path)
    assert not degraded
    summary = json.loads((tmp_path / "summary.json").read_text())
    fractions = {b["T_hold_steps"]: b["hold_satisfied_fraction"] for b in summary["blocks"]}
    for T_hold, frac in fractions.items():
        assert frac >= 0.9, f"T={T_hold}: hold satisfied only {frac:.3f} of steps"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"hold studies took {elapsed:.1f}s"
    print(f"[criterion 6] PASS hold fractions {fractions} ({elapsed:.1f}s)")


def test_criterion_07_hold_duration_monotone_in_setpoint():
    base = OperatingPoint(DEFAULT_PARAMS, BinGrid(18.0, 24.0, 40), T_SET, T_SET_NEW, DEADBAND, T_AMB, P_ON)
    sets = sweep([replace(base, T_set_new=T) for T in (21.0, 21.5, 22.0)], T_max=480, n_grid=50)
    holds = [query_t_at_p(s, 400.0) for s in sets]
    assert all(t > 0 for t in holds)
    assert holds[0] <= holds[1] <= holds[2], f"T_hold at 400 kW not monotone: {holds}"
    print(f"[criterion 7] PASS T_hold at 400 kW across 21/21.5/22 C: {holds}")


def test_criterion_08_precooling_dominates():
    nominal = OperatingPoint(DEFAULT_PARAMS, BinGrid(18.0, 24.0, 40), T_SET, T_SET_NEW, DEADBAND, T_AMB, P_ON)
    base, pre = sweep([nominal, replace(nominal, T_set=19.0)], T_max=480, n_grid=50)
    p_nom_base = base.regime["P_nom_kw"]
    p_nom_pre = pre.regime["P_nom_kw"]
    assert p_nom_pre > p_nom_base
    gaps = []
    for pt in base.points:
        gap = query_p_at_t(pre, pt.T_hold_steps) - pt.P_hold_kw
        assert gap >= -1e-9, f"pre-cooled frontier dips below baseline at T={pt.T_hold_steps}"
        gaps.append(gap)
    print(
        f"[criterion 8] PASS P_nom {p_nom_pre:.2f} > {p_nom_base:.2f} kW, "
        f"min frontier gap {min(gaps):+.1f} kW"
    )


def test_criterion_09_identical_fleet_aggregation(fleet40):
    rh = inner_boundary(fleet40, 20)
    sim = combined_set(rh, rh, "simultaneous")
    cons = combined_set(rh, rh, "consecutive")
    for pt in rh.points:
        assert query_p_at_t(sim, pt.T_hold_steps) == pytest.approx(
            2.0 * pt.P_hold_kw, abs=1e-9
        )
        assert query_t_at_p(cons, pt.P_hold_kw) == 2 * pt.T_hold_steps

    # replay one consecutive point: the second fleet starts as the first
    # fleet's hold expires, and the summed reduction must cover the claim
    mid = rh.points[len(rh.points) // 2]
    P, T = mid.P_hold_kw, mid.T_hold_steps
    alpha = inner_point(P, fleet40).alpha
    dp = delta_p_by_stepping(alpha[:, None] * fleet40.x_0[None, :], fleet40, horizon=2 * T)
    total = dp.copy()
    total[T + 1 :] += dp[1 : T + 1]
    worst = float((total[1 : 2 * T + 1] - P).min())
    assert worst >= -1e-6 * (P_ON + P_ON), (
        f"combined hold misses its claim by {worst} kW at (P={P:.1f}, 2T={2 * T})"
    )
    print(
        f"[criterion 9] PASS doubling exact on {len(rh.points)} points; "
        f"replayed (P={P:.1f} kW, 2T={2 * T}) with margin {worst:.3e} kW"
    )


def test_criterion_10_crossing_frontiers_refused(tmp_path, monkeypatch):
    # the one claim a reachhold run makes is inner <= exact <= outer at
    # every hold it bounds; a run whose frontiers cross exits 3 and
    # writes no frontier
    cfg = {
        "grid": {"n_bins": 10},
        "T_max_steps": 60,
        "reachhold": {"methods": ["inner", "outer", "exact"], "t_grid": [5, 30, 60]},
    }
    config = tmp_path / "c.json"
    config.write_text(json.dumps(cfg))
    assert main(["reachhold", "--config", str(config), "--out", str(tmp_path / "ok")]) == EXIT_OK
    real = reachhold.solve_outer

    def lowered(T, fleet):
        value, plan, sol = real(T, fleet)
        return value - 100.0, plan, sol

    monkeypatch.setattr(reachhold, "solve_outer", lowered)
    out = tmp_path / "crossed"
    assert main(["reachhold", "--config", str(config), "--out", str(out)]) == EXIT_NUMERICAL
    assert not list(out.glob("*.csv"))
    print("[criterion 10] PASS frontiers 100 kW crossed at one hold: exit 3, no frontier written")
