"""LP layer tests, including a randomly generated problem whose optimum
is known from construction (objective built from the active rows)."""

import numpy as np
import pytest

import tclflex.lp
from tclflex.errors import InvalidInputError
from tclflex.lp import (
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    RETRY_OPTIONS,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    max_violation,
    solve,
)


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
        G=np.vstack([G_active, G_slack]),
        h=np.concatenate([h_active, h_slack]),
        lo=np.zeros(n),
    )
    return lp, z_star, float(c @ z_star)


class TestSolve:
    def test_tiny_box_problem(self):
        lp = LinearProgram(c=np.array([1.0, 1.0]), lo=np.zeros(2), hi=np.array([1.0, 2.0]))
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
        lp = LinearProgram(c=np.array([1.0]), G=np.array([[1.0]]), h=np.array([-1.0]), lo=np.zeros(1))
        assert solve(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(c=np.array([1.0]), lo=np.zeros(1))
        assert solve(lp).status == UNBOUNDED

    def test_equality_rows(self):
        lp = LinearProgram(
            c=np.array([2.0, 1.0]),
            E=np.array([[1.0, 1.0]]),
            f=np.array([1.0]),
            lo=np.zeros(2),
            hi=np.ones(2),
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
        assert sol.z == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_duals_complementary(self):
        lp, _, _ = known_optimum_lp(seed=31)
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.duals_ineq is not None
        slack = lp.h - lp.G @ sol.z
        comp = np.abs(sol.duals_ineq * slack)
        assert comp.max() <= 1e-6 * max(1.0, np.abs(lp.h).max(), sol.duals_ineq.max())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(3), G=np.ones((2, 2)), h=np.ones(2))
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(2), G=np.ones((2, 2)), h=None)
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(2), lo=np.zeros(3))

    def test_crossed_bounds_rejected(self):
        lp = LinearProgram(c=np.ones(1), lo=np.array([2.0]), hi=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            solve(lp)


class TestVerification:
    def test_max_violation_measures_raw_data(self):
        lp = LinearProgram(
            c=np.ones(2),
            G=np.array([[1.0, 0.0]]),
            h=np.array([1.0]),
            E=np.array([[0.0, 1.0]]),
            f=np.array([0.5]),
            lo=np.zeros(2),
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


def spoil_x(res):
    res.x = res.x + 1e-3  # pushes past the active rows of known_optimum_lp


def spoil_duals(res):
    # a unit dual on a slack row breaks complementary slackness
    slack_row = int(np.argmax(res.ineqlin.residual))
    res.ineqlin.marginals[slack_row] = -1.0


def give_up(res):
    # HiGHS status 4: the solve ended without an answer to check
    res.status = 4
    res.x = None


class TestRetry:
    """A numerical failure (an answer the checks reject, or none at all)
    is re-solved once with tight tolerances, and only a second failure is
    reported."""

    @staticmethod
    def patch_linprog(monkeypatch, spoil, n_spoiled):
        real = tclflex.lp.linprog
        seen = []

        def fake(*args, **kwargs):
            seen.append(kwargs.get("options"))
            res = real(*args, **kwargs)
            if len(seen) <= n_spoiled:
                spoil(res)
            return res

        monkeypatch.setattr(tclflex.lp, "linprog", fake)
        return seen

    @pytest.mark.parametrize("spoil", [spoil_x, spoil_duals, give_up])
    def test_spoiled_first_answer_is_resolved_tightly(self, monkeypatch, spoil):
        lp, z_star, obj_star = known_optimum_lp()
        seen = self.patch_linprog(monkeypatch, spoil, n_spoiled=1)
        sol = solve(lp)
        assert seen == [None, RETRY_OPTIONS]
        assert RETRY_OPTIONS == {
            "primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9,
        }
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(obj_star, rel=1e-6)
        assert sol.max_constraint_violation <= 1e-7 * max(1.0, np.abs(lp.h).max())

    @pytest.mark.parametrize("spoil", [spoil_x, spoil_duals, give_up])
    def test_second_spoiled_answer_is_numerical_failure(self, monkeypatch, spoil):
        lp, _, _ = known_optimum_lp()
        seen = self.patch_linprog(monkeypatch, spoil, n_spoiled=2)
        assert solve(lp).status == NUMERICAL_FAILURE
        assert seen == [None, RETRY_OPTIONS]

    def test_clean_answer_is_solved_once_with_default_options(self, monkeypatch):
        lp, _, _ = known_optimum_lp()
        seen = self.patch_linprog(monkeypatch, spoil_x, n_spoiled=0)
        assert solve(lp).status == OPTIMAL
        assert seen == [None]

    def test_infeasible_is_not_retried(self, monkeypatch):
        lp = LinearProgram(c=np.array([1.0]), G=np.array([[1.0]]), h=np.array([-1.0]), lo=np.zeros(1))
        seen = self.patch_linprog(monkeypatch, spoil_x, n_spoiled=0)
        assert solve(lp).status == INFEASIBLE
        assert seen == [None]

