"""Thin linear-programming layer.

Problems are stated in maximize form

    max  c @ z
    s.t. G z <= h,  lo <= z <= hi

with G stored column-wise and sparse (`ColumnMatrix`, the layout HiGHS
takes), and handed to HiGHS (Huangfu & Hall, Math. Prog. Comp. 10,
2018) through the `_Highs` class of the HiGHS extension that scipy ships.
The extension is loaded from its file at the first solve, without
running scipy's package code, so importing tclflex costs no solver
start-up; the model, options and status codes are those
`linprog(method="highs")` would use.  An optimal solution keeps its live
solver, so an LP that extends it by new columns (column generation)
is solved by appending them and restarting the simplex from the last
basis rather than from scratch.  Every reported optimum is
re-verified against the raw problem data here, independently of the
solver's own bookkeeping: a solution whose constraint violation exceeds
the tolerance is downgraded to numerical-failure rather than trusted.
Any numerical failure, including an answer HiGHS itself gives up on, is
re-solved cold on the next rung of `LADDER` before it is reported, and a
caller that refuses an optimum on checks of its own sends it there too.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

FEASIBILITY_TOL = 1e-7
COMPLEMENTARITY_TOL = 1e-6
# tight HiGHS tolerances, LADDER's second rung; its default feasibility
# tolerances are 1e-7
RETRY_OPTIONS = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}
# HiGHS options of the cold solves of one LP, in the order they are tried:
# the defaults, tight tolerances, then the interior-point solver with
# crossover.  A rung runs only when every earlier one's answer was refused
LADDER = (None, RETRY_OPTIONS, {"solver": "ipm"})

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical-failure"


@dataclass
class ColumnMatrix:
    """Sparse matrix in the column-wise layout HiGHS takes (kColwise):
    column j holds value[start[j]:start[j+1]] in rows
    index[start[j]:start[j+1]], rows strictly ascending, no stored zeros.
    np.asarray gives the dense equivalent and `@` a matrix-vector product."""

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        n_rows, n_cols = self.shape = (int(self.shape[0]), int(self.shape[1]))
        start, index = np.asarray(self.start), np.asarray(self.index)
        self.value = np.asarray(self.value, dtype=float)
        nnz = self.value.size
        if start.dtype.kind not in "iu" or start.shape != (n_cols + 1,) or start[0] != 0 or start[-1] != nnz:
            raise InvalidInputError(f"start must be {n_cols + 1} integers from 0 to the {nnz} nonzeros")
        if index.dtype.kind not in "iu" or index.shape != (nnz,) or np.any((index < 0) | (index >= n_rows)):
            raise InvalidInputError(f"index must hold {nnz} row numbers in 0..{n_rows - 1}")
        if not np.isfinite(self.value).all() or np.any(self.value == 0.0):
            raise InvalidInputError("value must be finite and nonzero")
        counts = np.diff(start)
        if np.any(counts < 0):
            raise InvalidInputError("start must not decrease")
        if np.any(np.diff(np.repeat(np.arange(n_cols), counts) * n_rows + index) <= 0):
            raise InvalidInputError("rows must ascend strictly within each column")
        self.start, self.index = start.astype(np.int32), index.astype(np.int32)

    @classmethod
    def from_entries(cls, pieces: list[tuple], shape) -> ColumnMatrix:
        """From pieces of (row, col, value) arrays, entries in any order and
        at distinct positions; zero values are dropped."""
        row, col, value = (np.concatenate(part) for part in zip(*pieces))
        keep = value != 0.0
        row, col, value = row[keep], col[keep], value[keep]
        order = np.argsort(col * np.int64(shape[0]) + row, kind="stable")  # by column, then row
        start = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=shape[1]))))
        return cls(start, row[order], value[order], shape)

    @classmethod
    def from_dense(cls, M: np.ndarray) -> ColumnMatrix:
        row, col = np.nonzero(M)
        return cls.from_entries([(row, col, M[row, col])], M.shape)

    def append(self, other: ColumnMatrix) -> ColumnMatrix:
        """The columns of self, then those of other (a column-wise hstack)."""
        if other.shape[0] != self.shape[0]:
            raise InvalidInputError(f"cannot append columns of {other.shape[0]} rows to {self.shape[0]} rows")
        return ColumnMatrix(
            np.concatenate((self.start, other.start[1:] + self.start[-1])),
            np.concatenate((self.index, other.index)),
            np.concatenate((self.value, other.value)),
            (self.shape[0], self.shape[1] + other.shape[1]),
        )

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=dtype or float)
        dense[self.index, np.repeat(np.arange(self.shape[1]), np.diff(self.start))] = self.value
        return dense

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        weights = self.value * np.repeat(np.asarray(z, dtype=float), np.diff(self.start))
        return np.bincount(self.index, weights=weights, minlength=self.shape[0])


@dataclass
class LinearProgram:
    """LP in maximize form: inequality rows G z <= h, with G a
    ColumnMatrix, and the box lo <= z <= hi (entries may be infinite)."""

    c: np.ndarray
    G: ColumnMatrix
    h: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    # no equality rows; kept as a class attribute because the benchmark's
    # tracer reads lp.E when it sizes a solve
    E = None

    def __post_init__(self) -> None:
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = self.c.size
        if not np.isfinite(self.c).all():
            raise InvalidInputError("c must be finite")
        if not isinstance(self.G, ColumnMatrix):
            raise InvalidInputError(f"G must be a ColumnMatrix, not {type(self.G).__name__}")
        self.h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if self.G.shape != (self.h.size, n):
            raise InvalidInputError(f"G shape {self.G.shape} incompatible with h ({self.h.size}) and c ({n})")
        if not np.isfinite(self.h).all():
            raise InvalidInputError("h must be finite")
        for name in ("lo", "hi"):
            bound = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if bound.size != n:
                raise InvalidInputError(f"{name} has size {bound.size}, expected {n}")
            if np.isnan(bound).any():
                raise InvalidInputError(f"{name} must not contain NaN")
            setattr(self, name, bound)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    """Solver outcome plus an independently computed violation measure.
    An optimum also keeps the LP it solves and HiGHS's live solver (None
    when none was kept), which a later `solve(..., warm=)` restarts."""

    status: str
    z: np.ndarray | None
    objective_value: float | None
    max_constraint_violation: float | None
    duals_ineq: np.ndarray | None = None
    _lp: LinearProgram | None = field(default=None, repr=False, compare=False)
    _highs: object = field(default=None, repr=False, compare=False)
    _rung: int = field(default=-1, repr=False, compare=False)  # LADDER index of a cold optimum

    def release(self) -> None:
        """Free the live solver now rather than with the solution; a
        later warm start from it then solves cold."""
        self._highs = None


def _constraint_scale(lp: LinearProgram) -> float:
    scale = 1.0
    for vec in (lp.h, lp.lo, lp.hi):
        finite = vec[np.isfinite(vec)]
        if finite.size:
            scale = max(scale, float(np.abs(finite).max()))
    return scale


def max_violation(lp: LinearProgram, z: np.ndarray) -> float:
    """Worst absolute constraint violation of z against the raw data."""
    worst = 0.0
    for excess in (lp.G @ z - lp.h, lp.lo - z, z - lp.hi):
        worst = max(worst, float(np.maximum(excess, 0.0).max(initial=0.0)))
    return worst


@dataclass
class HighsResult:
    """One HiGHS run in linprog's terms: status 0 optimal, 1 iteration or
    time limit, 2 infeasible, 3 unbounded, 4 any other outcome.  x, the
    G-row marginals (minimize form, so <= 0) and the solver that found
    them are set only at status 0."""

    status: int
    x: np.ndarray | None = None
    marginals: np.ndarray | None = None
    highs: object = field(default=None, repr=False)


_core = None


def _highs_core():
    """scipy's compiled HiGHS module, loaded from its file on first use.

    Running `scipy.optimize/__init__` would import scipy's linalg and
    sparse packages, so the extension is located from the spec of the
    top-level `scipy` package, which finding does not execute, and run
    on its own.  A later `import scipy.optimize` gets the same module
    object, since Python keeps a loaded extension module for reuse.
    """
    global _core
    if _core is None:
        package = importlib.util.find_spec("scipy")
        folder = Path(package.submodule_search_locations[0]) / "optimize" / "_highspy"
        finder = FileFinder(str(folder), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.optimize._highspy._core")
        if spec is None:
            import scipy

            raise ImportError(
                f"scipy.optimize._highspy._core not found in {folder} (scipy {scipy.__version__})"
            )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _core = module
    return _core


def run_highs(lp: LinearProgram, options: dict | None = None) -> HighsResult:
    """One HiGHS solve of the LP, posed as linprog(method="highs") poses it:
    minimize -c over the G rows (-inf, h] and the bounds [lo, hi], with
    presolve on and the dual simplex.  options are further HiGHS options
    set on top."""
    core = _highs_core()
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.n_vars
    model.num_row_ = model.a_matrix_.num_row_ = lp.h.size
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = lp.G.start
    model.a_matrix_.index_ = lp.G.index
    model.a_matrix_.value_ = lp.G.value
    model.col_cost_ = -lp.c
    model.col_lower_ = lp.lo
    model.col_upper_ = lp.hi
    model.row_lower_ = np.full(lp.h.size, -np.inf)
    model.row_upper_ = lp.h

    settings = core.HighsOptions()
    settings.presolve = "on"
    settings.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    settings.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    settings.output_flag = settings.log_to_console = False
    for key, value in (options or {}).items():
        setattr(settings, key, value)
    highs = core._Highs()
    highs.passOptions(settings)
    if highs.passModel(model) == core.HighsStatus.kError:
        # e.g. a lower bound of +inf; run() would then solve an empty
        # model and call it optimal.  linprog reports such a model as 2.
        return HighsResult(2)
    return _run(highs)


def _run(highs) -> HighsResult:
    """Run a HiGHS instance that holds its model."""
    core = _highs_core()
    highs.run()
    codes = {
        core.HighsModelStatus.kOptimal: 0,
        core.HighsModelStatus.kTimeLimit: 1,
        core.HighsModelStatus.kIterationLimit: 1,
        core.HighsModelStatus.kInfeasible: 2,
        core.HighsModelStatus.kModelError: 2,
        core.HighsModelStatus.kUnbounded: 3,
    }
    status = codes.get(highs.getModelStatus(), 4)
    if status != 0:
        return HighsResult(status)
    solution = highs.getSolution()
    return HighsResult(0, np.array(solution.col_value), np.array(solution.row_dual), highs)


def _extends(lp: LinearProgram, old: LinearProgram) -> bool:
    """Whether lp is old with columns appended: the same G rows and h,
    and old's columns (G entries, c, lo, hi) leading lp's."""
    n, nnz = old.n_vars, old.G.value.size
    if lp.n_vars < n or lp.G.shape[0] != old.G.shape[0] or not np.array_equal(lp.h, old.h):
        return False
    pairs = [(lp.G.start[: n + 1], old.G.start), (lp.G.index[:nnz], old.G.index), (lp.G.value[:nnz], old.G.value)]
    pairs += [(new[:n], prev) for new, prev in ((lp.c, old.c), (lp.lo, old.lo), (lp.hi, old.hi))]
    return all(np.array_equal(a, b) for a, b in pairs)


def _rerun(lp: LinearProgram, warm: LpSolution) -> HighsResult:
    """Append lp's new columns to warm's live solver and run it again,
    which restarts the simplex from warm's basis.  Status 4 when warm
    kept no solver, released it, or its solver has since been extended."""
    highs, n = warm._highs, warm._lp.n_vars
    if highs is None or highs.getNumCol() != n:
        return HighsResult(4)
    G, m = lp.G, lp.n_vars
    first = G.start[n]
    status = highs.addCols(
        m - n, -lp.c[n:], lp.lo[n:], lp.hi[n:],
        G.value.size - first, G.start[n:-1] - first, G.index[first:], G.value[first:],
    )
    if status == _highs_core().HighsStatus.kError:
        return HighsResult(4)
    return _run(highs)


def solve(lp: LinearProgram, warm: LpSolution | None = None) -> LpSolution:
    """Solve the LP and certify the answer against the problem data.

    Status is one of optimal / infeasible / unbounded / numerical-failure.
    For optimal solutions the scaled constraint violation is guaranteed
    to be at most FEASIBILITY_TOL, and complementary slackness of the
    reported duals is checked as well.  A numerical failure (an answer
    that fails either check, or one HiGHS cannot finish, such as its
    status 4) is re-solved cold on the next rung of LADDER; each answer
    faces the same checks, and a failure on the last rung is reported.

    warm is an optimum of an earlier `solve`.  When lp is warm's LP with
    columns appended (same G rows and h), the new columns are added
    to warm's live solver, which restarts from its last basis and then
    belongs to the answer, so a second use of warm solves cold.  That
    answer faces the same checks, and one that fails them or is not
    optimal is solved cold as above.  When lp is warm's LP itself, the
    caller refuses warm, and lp is solved cold on the rungs after the one
    that found warm (from the first for a warm-started answer):
    numerical failure once no rung is left.  Any other warm raises
    InvalidInputError.
    """
    if np.any(lp.lo > lp.hi):
        raise InvalidInputError("lower bound exceeds upper bound")
    first = 0
    if warm is not None:
        if warm.status != OPTIMAL or warm._lp is None or not (warm._lp is lp or _extends(lp, warm._lp)):
            raise InvalidInputError("warm must be an optimum of lp or of an LP whose columns lead lp's")
        if warm._lp is lp:
            first = warm._rung + 1
        else:
            sol = _certify(lp, _rerun(lp, warm), -1)
            if sol.status == OPTIMAL:
                return sol
    sol = LpSolution(NUMERICAL_FAILURE, None, None, None)
    for rung in range(first, len(LADDER)):
        sol = _certify(lp, run_highs(lp, LADDER[rung]), rung)
        if sol.status != NUMERICAL_FAILURE:
            break
    return sol


def _certify(lp: LinearProgram, res: HighsResult, rung: int) -> LpSolution:
    """Map a HiGHS result of LADDER's `rung` (-1 for a warm restart) to an
    LpSolution, downgrading an optimum that fails the violation or
    complementarity check (such answers keep z)."""
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
    if violation > FEASIBILITY_TOL * scale:
        status = NUMERICAL_FAILURE
    if status == OPTIMAL:
        # minimize form reports nonpositive marginals for <= rows
        duals_ineq = -np.asarray(res.marginals, dtype=float)
        slack = lp.h - lp.G @ z
        comp = np.abs(duals_ineq * slack)
        if comp.size and comp.max() > COMPLEMENTARITY_TOL * scale * max(1.0, float(np.abs(duals_ineq).max())):
            status = NUMERICAL_FAILURE
    optimal = status == OPTIMAL
    return LpSolution(
        status=status,
        z=z,
        objective_value=float(lp.c @ z),
        max_constraint_violation=violation,
        duals_ineq=duals_ineq,
        _lp=lp if optimal else None,
        _highs=res.highs if optimal else None,
        _rung=rung,
    )
