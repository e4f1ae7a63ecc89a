"""Thin linear-programming layer.

Problems are stated in maximize form

    max  c @ z
    s.t. G z <= h,  E z == f,  lo <= z <= hi

and handed to scipy's HiGHS backend.  Every reported optimum is
re-verified against the raw problem data here, independently of the
solver's own bookkeeping: a solution whose constraint violation exceeds
the tolerance is downgraded to numerical-failure rather than trusted.  Any
numerical failure, including an answer HiGHS itself gives up on, is
re-solved once with tighter HiGHS tolerances before it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import InvalidInputError

FEASIBILITY_TOL = 1e-7
COMPLEMENTARITY_TOL = 1e-6
# HiGHS options for the single re-solve of a numerical failure; its
# default feasibility tolerances are 1e-7
RETRY_OPTIONS = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical-failure"


@dataclass
class LinearProgram:
    """Dense LP in maximize form; any constraint block may be omitted."""

    c: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    E: np.ndarray | None = None
    f: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = self.c.size
        for mat_name, vec_name in (("G", "h"), ("E", "f")):
            mat = getattr(self, mat_name)
            vec = getattr(self, vec_name)
            if (mat is None) != (vec is None):
                raise InvalidInputError(f"{mat_name} and {vec_name} must be given together")
            if mat is not None:
                mat = np.atleast_2d(np.asarray(mat, dtype=float))
                vec = np.atleast_1d(np.asarray(vec, dtype=float))
                if mat.shape != (vec.size, n):
                    raise InvalidInputError(
                        f"{mat_name} shape {mat.shape} incompatible with "
                        f"{vec_name} ({vec.size}) and c ({n})"
                    )
                setattr(self, mat_name, mat)
                setattr(self, vec_name, vec)
        for name in ("lo", "hi"):
            bound = getattr(self, name)
            if bound is not None:
                bound = np.atleast_1d(np.asarray(bound, dtype=float))
                if bound.size != n:
                    raise InvalidInputError(f"{name} has size {bound.size}, expected {n}")
                setattr(self, name, bound)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    """Solver outcome plus an independently computed violation measure."""

    status: str
    z: np.ndarray | None
    objective_value: float | None
    max_constraint_violation: float | None
    duals_ineq: np.ndarray | None = None


def _constraint_scale(lp: LinearProgram) -> float:
    scale = 1.0
    for vec in (lp.h, lp.f, lp.lo, lp.hi):
        if vec is not None:
            finite = vec[np.isfinite(vec)]
            if finite.size:
                scale = max(scale, float(np.abs(finite).max()))
    return scale


def max_violation(lp: LinearProgram, z: np.ndarray) -> float:
    """Worst absolute constraint violation of z against the raw data."""
    worst = 0.0
    if lp.G is not None:
        worst = max(worst, float(np.maximum(lp.G @ z - lp.h, 0.0).max(initial=0.0)))
    if lp.E is not None:
        worst = max(worst, float(np.abs(lp.E @ z - lp.f).max(initial=0.0)))
    if lp.lo is not None:
        worst = max(worst, float(np.maximum(lp.lo - z, 0.0).max(initial=0.0)))
    if lp.hi is not None:
        worst = max(worst, float(np.maximum(z - lp.hi, 0.0).max(initial=0.0)))
    return worst


def solve(lp: LinearProgram, feasibility_tol: float = FEASIBILITY_TOL) -> LpSolution:
    """Solve the LP and certify the answer against the problem data.

    Status is one of optimal / infeasible / unbounded / numerical-failure.
    For optimal solutions the scaled constraint violation is guaranteed
    to be at most feasibility_tol, and complementary slackness of the
    reported duals is checked as well.  A numerical failure (an answer
    that fails either check, or one HiGHS cannot finish, such as its
    status 4) is re-solved once with RETRY_OPTIONS; the re-solved answer
    faces the same checks.
    """
    n = lp.n_vars
    if lp.lo is None and lp.hi is None:
        bounds = [(None, None)] * n
    else:
        lo = lp.lo if lp.lo is not None else np.full(n, -np.inf)
        hi = lp.hi if lp.hi is not None else np.full(n, np.inf)
        if np.any(lo > hi):
            raise InvalidInputError("lower bound exceeds upper bound")
        bounds = [
            (None if not np.isfinite(l) else l, None if not np.isfinite(u) else u)
            for l, u in zip(lo, hi)
        ]
    for options in (None, RETRY_OPTIONS):
        res = linprog(
            -lp.c,
            A_ub=lp.G,
            b_ub=lp.h,
            A_eq=lp.E,
            b_eq=lp.f,
            bounds=bounds,
            method="highs",
            options=options,
        )
        sol = _certify(lp, res, feasibility_tol)
        if sol.status != NUMERICAL_FAILURE:
            break
    return sol


def _certify(lp: LinearProgram, res, feasibility_tol: float) -> LpSolution:
    """Map a linprog result to an LpSolution, downgrading an optimum that
    fails the violation or complementarity check (such answers keep z)."""
    if res.status == 2:
        return LpSolution(INFEASIBLE, None, None, None)
    if res.status == 3:
        return LpSolution(UNBOUNDED, None, None, None)
    if res.status != 0 or res.x is None:
        return LpSolution(NUMERICAL_FAILURE, None, None, None)
    z = np.asarray(res.x, dtype=float)
    violation = max_violation(lp, z)
    scale = _constraint_scale(lp)
    duals_ineq = None
    status = OPTIMAL
    if violation > feasibility_tol * scale:
        status = NUMERICAL_FAILURE
    if status == OPTIMAL and res.ineqlin is not None and lp.G is not None:
        # minimize form reports nonpositive marginals for <= rows
        duals_ineq = -np.asarray(res.ineqlin.marginals, dtype=float)
        slack = lp.h - lp.G @ z
        comp = np.abs(duals_ineq * slack)
        if comp.size and comp.max() > COMPLEMENTARITY_TOL * scale * max(1.0, float(np.abs(duals_ineq).max())):
            status = NUMERICAL_FAILURE
    return LpSolution(
        status=status,
        z=z,
        objective_value=float(lp.c @ z),
        max_constraint_violation=violation,
        duals_ineq=duals_ineq,
    )

