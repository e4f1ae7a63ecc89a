"""LP layer tests, including a randomly generated problem whose optimum
is known from construction (objective built from the active rows), and
`run_highs` checked bit for bit against scipy's linprog."""

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tclflex.lp
import tclflex.reachhold
from tclflex.errors import InvalidInputError
from tclflex.etp import DEFAULT_PARAMS
from tclflex.lp import (
    FEASIBILITY_TOL,
    INFEASIBLE,
    LADDER,
    NUMERICAL_FAILURE,
    OPTIMAL,
    RETRY_OPTIONS,
    UNBOUNDED,
    ColumnMatrix,
    HighsResult,
    LinearProgram,
    LpSolution,
    max_violation,
    run_highs,
    solve,
)
from tclflex.reachhold import OperatingPoint, characterize, solve_exact, solve_outer

from conftest import DEADBAND, P_ON_TOTAL, T_AMB, T_SET, T_SET_NEW


ROOT = Path(__file__).resolve().parents[1]


def known_optimum_lp(seed=77, n=20, n_slack_rows=30):
    """Random LP with a certified optimum.

    A nondegenerate vertex z* > 0 is pinned by n active rows; the
    objective is a strictly positive combination of those rows' normals,
    so z* is optimal by weak duality and the optimal value is c @ z*.
    """
    rng = np.random.default_rng(seed)
    z_star = rng.uniform(0.5, 2.0, size=n)
    while True:
        G_active = rng.normal(size=(n, n))
        if np.linalg.cond(G_active) < 100.0:
            break
    h_active = G_active @ z_star
    G_slack = rng.normal(size=(n_slack_rows, n))
    h_slack = G_slack @ z_star + rng.uniform(0.1, 1.0, size=n_slack_rows)
    lam = rng.uniform(0.5, 2.0, size=n)
    c = G_active.T @ lam
    lp = LinearProgram(
        c=c,
        G=ColumnMatrix.from_dense(np.vstack([G_active, G_slack])),
        h=np.concatenate([h_active, h_slack]),
        lo=np.zeros(n),
        hi=np.full(n, np.inf),
    )
    return lp, z_star, float(c @ z_star)


def box_lp(c, lo, hi):
    """The LP over the box lo <= z <= hi alone: G has no rows."""
    c = np.asarray(c, dtype=float)
    return LinearProgram(c=c, G=ColumnMatrix.from_dense(np.zeros((0, c.size))), h=np.zeros(0), lo=lo, hi=hi)


def one_row_lp(c, row, h):
    """max c @ z over row @ z <= h and z >= 0."""
    n = len(c)
    G = ColumnMatrix.from_dense(np.array([row], dtype=float))
    return LinearProgram(c=np.asarray(c, dtype=float), G=G, h=np.array([h]), lo=np.zeros(n), hi=np.full(n, np.inf))


class TestSolve:
    def test_tiny_box_problem(self):
        lp = box_lp(c=np.array([1.0, 1.0]), lo=np.zeros(2), hi=np.array([1.0, 2.0]))
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
        assert sol.z == pytest.approx([1.0, 2.0], abs=1e-9)

    def test_known_optimum_random_program(self):
        lp, z_star, obj_star = known_optimum_lp()
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(obj_star, rel=1e-6)
        assert sol.z == pytest.approx(z_star, abs=1e-5)
        assert sol.max_constraint_violation <= 1e-7 * max(1.0, np.abs(lp.h).max())

    def test_infeasible(self):
        assert solve(one_row_lp([1.0], [1.0], -1.0)).status == INFEASIBLE

    def test_unbounded(self):
        lp = box_lp(c=np.array([1.0]), lo=np.zeros(1), hi=np.full(1, np.inf))
        assert solve(lp).status == UNBOUNDED

    def test_duals_complementary(self):
        lp, _, _ = known_optimum_lp(seed=31)
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.duals_ineq is not None
        slack = lp.h - lp.G @ sol.z
        comp = np.abs(sol.duals_ineq * slack)
        assert comp.max() <= 1e-6 * max(1.0, np.abs(lp.h).max(), sol.duals_ineq.max())

    def test_dimension_mismatch_rejected(self):
        G = ColumnMatrix.from_dense(np.ones((2, 2)))
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(3), G=G, h=np.ones(2), lo=np.zeros(3), hi=np.ones(3))
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(2), G=G, h=np.ones(3), lo=np.zeros(2), hi=np.ones(2))
        with pytest.raises(InvalidInputError):
            box_lp(c=np.ones(2), lo=np.zeros(3), hi=np.ones(2))

    def test_nonfinite_data_rejected(self):
        # HiGHS itself reports an LP with a NaN cost as solved
        with pytest.raises(InvalidInputError):
            box_lp(c=np.array([np.nan, 1.0]), lo=np.zeros(2), hi=np.ones(2))
        with pytest.raises(InvalidInputError):
            one_row_lp(np.ones(2), [np.inf, 1.0], 1.0)
        with pytest.raises(InvalidInputError):
            one_row_lp(np.ones(2), [1.0, 1.0], np.nan)
        with pytest.raises(InvalidInputError):
            box_lp(c=np.ones(2), lo=np.array([0.0, np.nan]), hi=np.ones(2))

    def test_model_highs_rejects_is_infeasible(self):
        lp = box_lp(c=np.array([1.0]), lo=np.array([np.inf]), hi=np.array([np.inf]))
        assert run_highs(lp).status == 2
        assert solve(lp).status == INFEASIBLE

    def test_crossed_bounds_rejected(self):
        lp = box_lp(c=np.ones(1), lo=np.array([2.0]), hi=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            solve(lp)


def sparse_dense(seed, shape, density=0.3):
    """A random dense matrix, about `density` nonzero, with some -0.0."""
    rng = np.random.default_rng(seed)
    M = np.where(rng.random(shape) < density, rng.normal(size=shape), 0.0)
    M[rng.random(shape) < 0.1] = -0.0
    return M


class TestColumnMatrix:
    @pytest.mark.parametrize("shape", [(7, 5), (1, 9), (9, 1), (0, 4), (4, 0), (30, 40)])
    def test_dense_round_trip(self, shape):
        M = sparse_dense(3, shape)
        cm = ColumnMatrix.from_dense(M)
        assert cm.shape == shape
        assert np.array_equal(np.asarray(cm), M)
        assert cm.value.size == np.count_nonzero(M)
        assert np.all(cm.value != 0.0)  # -0.0 is not stored

    def test_layout_is_column_wise(self):
        M = np.array([[1.0, 0.0, 4.0], [0.0, 0.0, 5.0], [2.0, 3.0, -0.0]])
        cm = ColumnMatrix.from_dense(M)
        assert cm.start.tolist() == [0, 2, 3, 5]
        assert cm.index.tolist() == [0, 2, 2, 0, 1]
        assert cm.value.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert cm.start.dtype == cm.index.dtype == np.int32

    def test_from_entries_sorts_and_drops_zeros(self):
        cm = ColumnMatrix.from_entries(
            [
                (np.array([2, 0]), np.array([1, 1]), np.array([3.0, 0.0])),
                (np.array([1]), np.array([0]), np.array([-1.0])),
            ],
            (3, 2),
        )
        assert np.array_equal(np.asarray(cm), [[0.0, 0.0], [-1.0, 0.0], [0.0, 3.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_product_matches_dense(self, seed):
        M = sparse_dense(seed, (40, 60)) * 10.0 ** np.random.default_rng(seed).uniform(-3, 3, 60)
        z = np.random.default_rng(seed + 100).normal(size=60)
        err = np.abs(ColumnMatrix.from_dense(M) @ z - M @ z)
        assert np.all(err <= 1e-12 * (np.abs(M) @ np.abs(z)))

    @pytest.mark.parametrize(
        "start, index, value, shape",
        [
            pytest.param([0, 2, 1, 3], [0, 1, 0], [1.0, 2.0, 3.0], (2, 3), id="start-decreases"),
            pytest.param([1, 2, 3], [0, 1, 0], [1.0, 2.0, 3.0], (2, 2), id="start-not-from-zero"),
            pytest.param([0, 1, 2], [0, 1, 0], [1.0, 2.0, 3.0], (2, 2), id="start-short-of-nnz"),
            pytest.param([0, 1, 3], [0, 1, 0], [1.0, 2.0, 3.0], (2, 3), id="start-wrong-length"),
            pytest.param([0.0, 1.0, 2.0], [0, 1], [1.0, 2.0], (2, 2), id="start-not-integer"),
            pytest.param([0, 1, 2], [0, 2], [1.0, 2.0], (2, 2), id="index-past-rows"),
            pytest.param([0, 1, 2], [0, -1], [1.0, 2.0], (2, 2), id="index-negative"),
            pytest.param([0, 1, 2], [0, 2**40], [1.0, 2.0], (2, 2), id="index-overflows"),
            pytest.param([0, 2], [1, 0], [1.0, 2.0], (2, 1), id="rows-descend"),
            pytest.param([0, 2], [1, 1], [1.0, 2.0], (2, 1), id="row-repeated"),
            pytest.param([0, 1, 2], [0, 1], [1.0, np.nan], (2, 2), id="value-nan"),
            pytest.param([0, 1, 2], [0, 1], [np.inf, 1.0], (2, 2), id="value-inf"),
            pytest.param([0, 1, 2], [0, 1], [0.0, 1.0], (2, 2), id="value-zero"),
        ],
    )
    def test_malformed_rejected(self, start, index, value, shape):
        with pytest.raises(InvalidInputError):
            ColumnMatrix(np.array(start), np.array(index), np.array(value), shape)

    @pytest.mark.parametrize("widths", [(5, 3), (0, 4), (4, 0), (1, 1), (30, 40)])
    def test_append_is_hstack(self, widths):
        left, right = sparse_dense(11, (7, widths[0])), sparse_dense(12, (7, widths[1]))
        got = ColumnMatrix.from_dense(left).append(ColumnMatrix.from_dense(right))
        want = ColumnMatrix.from_dense(np.hstack((left, right)))
        assert got.shape == want.shape
        for name in ("start", "index", "value"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_append_needs_equal_rows(self):
        with pytest.raises(InvalidInputError, match="rows"):
            ColumnMatrix.from_dense(np.ones((3, 2))).append(ColumnMatrix.from_dense(np.ones((4, 2))))

    def test_linear_program_checks_a_sparse_shape(self):
        G = ColumnMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(InvalidInputError, match="shape"):
            LinearProgram(c=np.ones(2), G=G, h=np.ones(2), lo=np.zeros(2), hi=np.ones(2))
        assert LinearProgram(c=np.ones(3), G=G, h=np.ones(2), lo=np.zeros(3), hi=np.ones(3)).G is G

    @pytest.mark.parametrize("G", [np.ones((2, 3)), [[1.0, 1.0, 1.0]] * 2], ids=["array", "list"])
    def test_linear_program_refuses_a_dense_matrix(self, G):
        with pytest.raises(InvalidInputError, match="ColumnMatrix"):
            LinearProgram(c=np.ones(3), G=G, h=np.ones(2), lo=np.zeros(3), hi=np.ones(3))

    def test_linear_program_has_no_equality_rows(self):
        G = ColumnMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(TypeError):
            LinearProgram(c=np.ones(3), G=G, h=np.ones(2), E=G, f=np.ones(2), lo=np.zeros(3), hi=np.ones(3))
        assert LinearProgram.E is None


class TestVerification:
    def test_max_violation_measures_raw_data(self):
        lp = LinearProgram(
            c=np.ones(2),
            G=ColumnMatrix.from_dense(np.array([[1.0, 0.0]])),
            h=np.array([1.0]),
            lo=np.zeros(2),
            hi=np.array([np.inf, 0.5]),
        )
        assert max_violation(lp, np.array([0.5, 0.5])) == 0.0
        assert max_violation(lp, np.array([2.0, 0.5])) == pytest.approx(1.0)
        assert max_violation(lp, np.array([0.5, 0.8])) == pytest.approx(0.3)
        assert max_violation(lp, np.array([-0.2, 0.5])) == pytest.approx(0.2)

    def test_solution_carries_violation_field(self):
        lp, _, _ = known_optimum_lp(seed=5)
        sol = solve(lp)
        assert isinstance(sol, LpSolution)
        assert sol.max_constraint_violation is not None
        assert sol.max_constraint_violation >= 0.0


def spoil_x(lp, res):
    res.x = res.x + 1e-3  # pushes past the active rows of known_optimum_lp


def spoil_duals(lp, res):
    # a unit dual on a slack row breaks complementary slackness
    slack_row = int(np.argmax(lp.h - lp.G @ res.x))
    res.marginals[slack_row] = -1.0


def give_up(lp, res):
    # HiGHS status 4: the solve ended without an answer to check
    res.status = 4
    res.x = None


def patch_highs(monkeypatch, spoil=None, n_spoiled=0):
    """Record the options of every cold HiGHS run, spoiling the first
    n_spoiled answers."""
    real = tclflex.lp.run_highs
    seen = []

    def fake(lp, options=None):
        seen.append(options)
        res = real(lp, options)
        if len(seen) <= n_spoiled:
            spoil(lp, res)
        return res

    monkeypatch.setattr(tclflex.lp, "run_highs", fake)
    return seen


class TestRetry:
    """A numerical failure (an answer the checks reject, or none at all)
    is re-solved cold on the next rung of LADDER, tight tolerances and
    then the interior-point solver, and only a failure on every rung is
    reported.  An optimum handed back as refused goes on down the ladder."""

    @pytest.mark.parametrize("spoil", [spoil_x, spoil_duals, give_up])
    def test_spoiled_first_answer_is_resolved_tightly(self, monkeypatch, spoil):
        lp, z_star, obj_star = known_optimum_lp()
        seen = patch_highs(monkeypatch, spoil, n_spoiled=1)
        sol = solve(lp)
        assert seen == [None, RETRY_OPTIONS]
        assert RETRY_OPTIONS == {
            "primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9,
        }
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(obj_star, rel=1e-6)
        assert sol.max_constraint_violation <= 1e-7 * max(1.0, np.abs(lp.h).max())

    @pytest.mark.parametrize("spoil", [spoil_x, spoil_duals, give_up])
    def test_second_spoiled_answer_is_resolved_by_interior_point(self, monkeypatch, spoil):
        lp, _, obj_star = known_optimum_lp()
        seen = patch_highs(monkeypatch, spoil, n_spoiled=2)
        sol = solve(lp)
        assert seen == [None, RETRY_OPTIONS, {"solver": "ipm"}] == list(LADDER)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(obj_star, rel=1e-6)

    @pytest.mark.parametrize("spoil", [spoil_x, spoil_duals, give_up])
    def test_third_spoiled_answer_is_numerical_failure(self, monkeypatch, spoil):
        lp, _, _ = known_optimum_lp()
        seen = patch_highs(monkeypatch, spoil, n_spoiled=3)
        assert solve(lp).status == NUMERICAL_FAILURE
        assert seen == list(LADDER)

    def test_refused_optimum_goes_on_down_the_ladder(self, monkeypatch):
        lp, _, obj_star = known_optimum_lp()
        seen = patch_highs(monkeypatch)
        sol = solve(lp)
        for rung in LADDER[1:]:
            sol = solve(lp, warm=sol)
            assert sol.status == OPTIMAL
            assert sol.objective_value == pytest.approx(obj_star, rel=1e-6)
            assert seen[-1] == rung
        assert solve(lp, warm=sol).status == NUMERICAL_FAILURE
        assert seen == list(LADDER)

    def test_clean_answer_is_solved_once_with_default_options(self, monkeypatch):
        lp, _, _ = known_optimum_lp()
        seen = patch_highs(monkeypatch)
        assert solve(lp).status == OPTIMAL
        assert seen == [None]

    def test_infeasible_is_not_retried(self, monkeypatch):
        lp = one_row_lp([1.0], [1.0], -1.0)
        seen = patch_highs(monkeypatch)
        assert solve(lp).status == INFEASIBLE
        assert seen == [None]


def packing_lp(n, seed=9, n_rows=12):
    """max c @ z over G z <= 1, z >= 0 with G > 0 sparse-ish: feasible at
    z = 0 and bounded, and so is the LP of any of its leading columns."""
    rng = np.random.default_rng(seed)
    G = np.where(rng.random((n_rows, n)) < 0.5, rng.uniform(0.1, 1.0, (n_rows, n)), 0.0)
    G[rng.integers(n_rows, size=n), np.arange(n)] = rng.uniform(0.1, 1.0, n)  # no empty column
    G = ColumnMatrix.from_dense(G)
    return LinearProgram(c=rng.uniform(0.5, 2.0, n), G=G, h=np.ones(n_rows), lo=np.zeros(n), hi=np.full(n, np.inf))


def leading(lp, k):
    """The LP of lp's first k columns."""
    G = ColumnMatrix.from_dense(np.asarray(lp.G)[:, :k])
    return LinearProgram(c=lp.c[:k], G=G, h=lp.h, lo=lp.lo[:k], hi=lp.hi[:k])


class TestWarmStart:
    """An LP that extends an earlier optimum by new columns restarts that
    optimum's solver instead of solving from scratch, and faces the same
    checks."""

    def test_appended_columns_solve_warm(self, monkeypatch):
        full = packing_lp(40)
        seen = patch_highs(monkeypatch)
        sol = solve(leading(full, 10))
        for k in (20, 21, 21, 40):
            sol = solve(leading(full, k), warm=sol)
            assert sol.status == OPTIMAL
            assert sol.objective_value == pytest.approx(solve(leading(full, k)).objective_value, abs=1e-9)
        assert len(seen) == 1 + 4  # the first solve and the four cold references
        assert sol.max_constraint_violation <= FEASIBILITY_TOL

    @pytest.mark.parametrize("spoil", [spoil_x, spoil_duals, give_up])
    def test_warm_answer_that_fails_is_solved_cold(self, monkeypatch, spoil):
        full = packing_lp(40)
        first = solve(leading(full, 10))
        real = tclflex.lp._rerun

        def spoiled(lp, warm):
            res = real(lp, warm)
            spoil(lp, res)
            return res

        monkeypatch.setattr(tclflex.lp, "_rerun", spoiled)
        seen = patch_highs(monkeypatch)
        sol = solve(full, warm=first)
        assert seen == [None]
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(solve(full).objective_value, abs=1e-9)
        assert sol.max_constraint_violation <= FEASIBILITY_TOL

    def test_spent_solver_is_solved_cold(self, monkeypatch):
        # a warm start takes the solver over; a second use of the same
        # optimum finds it extended and solves cold
        full = packing_lp(40)
        first = solve(leading(full, 10))
        seen = patch_highs(monkeypatch)
        grown = solve(leading(full, 30), warm=first)
        again = solve(full, warm=first)
        assert seen == [None]
        assert again.status == grown.status == OPTIMAL
        assert again.objective_value == pytest.approx(solve(full).objective_value, abs=1e-9)

    @pytest.mark.parametrize("how", ["released", "from-linprog"])
    def test_optimum_without_a_solver_is_solved_cold(self, monkeypatch, how):
        full = packing_lp(30)
        with monkeypatch.context() as mp:
            if how == "from-linprog":
                mp.setattr(tclflex.lp, "run_highs", linprog_answer)
            first = solve(leading(full, 10))
        if how == "released":
            first.release()
        seen = patch_highs(monkeypatch)
        assert solve(full, warm=first).status == OPTIMAL
        assert seen == [None]

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda lp: leading(lp, 5), id="fewer-columns"),
            pytest.param(lambda lp: replace(lp, h=2.0 * lp.h), id="other-h"),
            pytest.param(
                lambda lp: replace(lp, G=ColumnMatrix.from_dense(np.asarray(lp.G)[:-1]), h=lp.h[:-1]), id="other-rows"
            ),
            pytest.param(lambda lp: replace(lp, c=np.r_[2.0, lp.c[1:]]), id="leading-cost-changed"),
            pytest.param(
                lambda lp: replace(lp, G=ColumnMatrix.from_dense(-np.asarray(lp.G))), id="leading-entries-changed"
            ),
            pytest.param(lambda lp: replace(lp, lo=np.r_[1.0, lp.lo[1:]]), id="leading-lo-changed"),
            pytest.param(lambda lp: replace(lp, hi=np.r_[1.0, lp.hi[1:]]), id="leading-hi-changed"),
        ],
    )
    def test_lp_that_does_not_extend_warm_is_rejected(self, change):
        full = packing_lp(20)
        first = solve(leading(full, 10))
        with pytest.raises(InvalidInputError, match="warm"):
            solve(change(full), warm=first)

    def test_warm_must_be_optimal(self):
        full = packing_lp(20)
        with pytest.raises(InvalidInputError, match="warm"):
            solve(full, warm=LpSolution(NUMERICAL_FAILURE, None, None, None))
        with pytest.raises(InvalidInputError, match="warm"):
            solve(full, warm=LpSolution(OPTIMAL, np.zeros(20), 0.0, 0.0))  # not from solve


def linprog_answer(lp, options=None):
    """The oracle: the same LP through scipy's linprog(method="highs"),
    posed as `solve` posed it before it drove HiGHS itself."""
    from scipy.optimize import linprog

    bounds = [(l if np.isfinite(l) else None, u if np.isfinite(u) else None) for l, u in zip(lp.lo, lp.hi)]
    res = linprog(-lp.c, A_ub=lp.G, b_ub=lp.h, bounds=bounds, method="highs", options=options)
    if res.x is None:
        return HighsResult(res.status)
    return HighsResult(res.status, res.x, res.ineqlin.marginals)


def reachhold_lps(monkeypatch, run):
    """Every LinearProgram the bound routines hand to `solve` during run()."""
    lps = []
    real = tclflex.reachhold.solve
    with monkeypatch.context() as mp:
        mp.setattr(tclflex.reachhold, "solve", lambda lp, warm=None: lps.append(lp) or real(lp, warm))
        run()
    return lps


SMALL_LPS = {
    "known-optimum": known_optimum_lp()[0],
    "bounds-only": box_lp(c=np.array([1.0, -2.0]), lo=np.array([0.0, -1.0]), hi=np.array([1.0, 2.0])),
    "unconstrained": box_lp(c=np.zeros(3), lo=np.full(3, -np.inf), hi=np.full(3, np.inf)),
    "infeasible": one_row_lp([1.0], [1.0], -1.0),
    "unbounded": one_row_lp([1.0, 1.0], [1.0, -1.0], 1.0),
}


class TestRunHighs:
    """run_highs gives what linprog gives: status, x and G-row marginals
    agree bit for bit, so `solve` certifies the same answers."""

    @staticmethod
    def assert_same(lp, monkeypatch):
        for options in (None, RETRY_OPTIONS):
            got, ref = run_highs(lp, options), linprog_answer(lp, options)
            assert got.status == ref.status
            for name in ("x", "marginals"):
                a, b = getattr(got, name), getattr(ref, name)
                assert (a is None and b is None) or np.array_equal(a, b)
        sol = solve(lp)
        with monkeypatch.context() as mp:
            mp.setattr(tclflex.lp, "run_highs", linprog_answer)
            ref = solve(lp)
        assert sol.status == ref.status
        assert sol.objective_value == ref.objective_value
        for name in ("z", "duals_ineq"):
            a, b = getattr(sol, name), getattr(ref, name)
            assert (a is None and b is None) or np.array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(SMALL_LPS))
    def test_small_programs(self, name, monkeypatch):
        self.assert_same(SMALL_LPS[name], monkeypatch)

    def test_statuses_cover_every_outcome(self):
        status = {name: run_highs(lp).status for name, lp in SMALL_LPS.items()}
        assert status == {"known-optimum": 0, "bounds-only": 0, "unconstrained": 0, "infeasible": 2, "unbounded": 3}

    @pytest.mark.parametrize("T", [1, 5, 20])
    def test_exact_lps(self, char10, T, monkeypatch):
        (lp,) = reachhold_lps(monkeypatch, lambda: solve_exact(T, char10))
        self.assert_same(lp, monkeypatch)

    def test_outer_masters(self, grid40, monkeypatch):
        # at 10 bins one master settles every hold, so this takes the
        # default 40-bin fleet at a hold that needs several rounds
        op = OperatingPoint(DEFAULT_PARAMS, grid40, T_SET, T_SET_NEW, DEADBAND, T_AMB, P_ON_TOTAL)
        ch = characterize(op, T_max=90)
        lps = reachhold_lps(monkeypatch, lambda: solve_outer(90, ch))
        assert len(lps) >= 2
        for lp in lps:
            self.assert_same(lp, monkeypatch)


IMPORT_SCRIPT = """
import json, sys
import tclflex
from tclflex import scenario
heavy = [m for m in ("scipy.optimize", "scipy.linalg", "scipy.sparse") if m in sys.modules]
from tclflex import lp, reachhold
from tclflex.etp import DEFAULT_PARAMS
from tclflex.markov import BinGrid
op = reachhold.OperatingPoint(DEFAULT_PARAMS, BinGrid(18.0, 24.0, 10), 20.0, 22.0, 1.0, 32.0, 3500.0)
ch = reachhold.characterize(op, T_max=20)
P, _, _ = reachhold.solve_exact(5, ch)
solved_without_optimize = "scipy.optimize" not in sys.modules
solved_without_scipy = "scipy" not in sys.modules
from scipy.optimize import linprog
res = linprog([-1.0], bounds=[(0.0, 2.0)], method="highs")
import scipy.optimize._highspy._core as core
print(json.dumps({
    "heavy": heavy, "P": P, "solved_without_optimize": solved_without_optimize,
    "solved_without_scipy": solved_without_scipy,
    "linprog": [int(res.status), float(res.x[0])], "same_core": core is lp._highs_core(),
}))
"""


class TestHighsLoading:
    def test_import_and_solve_leave_scipy_optimize_unloaded(self):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["heavy"] == []
        assert out["P"] > 0.0
        assert out["solved_without_optimize"]
        assert out["solved_without_scipy"]  # not even scipy/__init__ ran
        # a later linprog call works and shares the loaded extension
        assert out["linprog"] == [0, 2.0]
        assert out["same_core"]

    def test_missing_extension_is_an_import_error(self, monkeypatch, tmp_path):
        real_find_spec = importlib.util.find_spec

        def find_spec(name, package=None):
            if name != "scipy":
                return real_find_spec(name, package)
            spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
            spec.submodule_search_locations = [str(tmp_path)]  # holds no optimize/_highspy
            return spec

        monkeypatch.setattr(importlib.util, "find_spec", find_spec)
        monkeypatch.setattr(tclflex.lp, "_core", None)
        with pytest.raises(ImportError, match=r"scipy\.optimize\._highspy\._core not found .*\(scipy \d"):
            solve(box_lp(c=np.ones(1), lo=np.zeros(1), hi=np.ones(1)))
