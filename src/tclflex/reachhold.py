"""Reach-and-hold characterization of aggregate demand flexibility.

A fleet at stationary occupancy x_0 can be commanded, per step, to move
a population fraction u[k] (0 <= u[k] <= x[k]) from the nominal-setpoint
dynamics A to the raised-setpoint dynamics A_a.  The demand reduction

    dP[k] = sum_{n<k} (h_{k-n} - h_{a,k-n}) @ u[n],   h_m = c A^m

is the reach; a pair (P_hold, T_hold) is achievable when some admissible
plan keeps dP[k] >= P_hold for every k in 1..T_hold.  Three routes map
the achievable set:

* exact: the LP on the smallest A-invariant set containing supp(x_0),
  where every admissible plan lives, over the mass left unactuated after
  each step, from which the plan follows; admissibility is one sparse
  inequality block per step and the plan is replayed to certify the
  value (desk scale only),
* inner: a feasible budget-allocation policy u[k] = alpha[k] x_0 whose
  lower-bound recursion discounts the power a freshly actuated cohort
  still draws (c A_a x_0, zero once the raise exceeds one deadband).
  The recursion is linear in r = P_hold / P_nom and in the committed
  prefix, and its clip at zero keeps that since r > 0 (max(r x, 0) =
  r max(x, 0)), so alpha(r) = r alpha_1 until the unit budget runs out:
  one run at r = 1 per fleet serves every target and, in closed form,
  every hold (`inner_values`),
* outer: the LP that keeps the hold rows and the unit budget but
  relaxes admissibility to 0 <= u[k] <= x_0, which every admissible
  plan meets since the unactuated mass never exceeds A^k x_0 = x_0; it
  is solved by column generation over (step, state) columns until a
  fractional-knapsack bound from the master's duals meets the value, so
  its value is a proved upper bound on exact.

Every route hands its values to `prune_to_frontier`, and a frontier is
a `ReachHoldSet`: two arrays, the holds and their reductions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    FrontierMonotonicityError,
    InvalidConfigurationError,
    InvalidInputError,
    NumericalFailureError,
)
from .etp import TclParams
from .lp import OPTIMAL, ColumnMatrix, LinearProgram, LpSolution, solve
from .markov import (
    BinGrid,
    TransitionMatrix,
    estimate_transition_matrix,
    output_vector,
    reachable,
    stationary_distribution,
)

EXACT = "exact"
INNER = "inner"
OUTER = "outer"
METHODS = (EXACT, INNER, OUTER)

# max T_hold * n_states for the exact route.  The LP itself is built on
# the invariant support (16 of 80 states at the defaults), with
# T_hold |S| + 2 variables and no equality rows, but the cap counts full
# states so that the holds it admits do not depend on the occupancy
EXACT_LP_CAP = 5000
# an exact plan, replayed by delta_p_by_stepping, may fall at most this
# fraction of P_on_total below the value the LP claims for it
EXACT_REPLAY_TOL_REL = 1e-9
# the outer column generation stops once its knapsack bound is within this
# fraction of the master's value, and gives up after this many rounds.
# Columns are only ever added: each master restarts HiGHS from the last
# one's basis, so a column that sits unused costs little
OUTER_CG_GAP_REL = 1e-9
OUTER_CG_MAX_ROUNDS = 200
DEFAULT_T_MAX = 480  # steps; 8 h at one-minute resolution


def response_kernels(
    A: TransitionMatrix,
    A_a: TransitionMatrix,
    c: np.ndarray,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The output kernels h_m = c A^m and h_a_m = c A_a^m, m = 0..horizon,
    as (horizon+1, n_states) arrays whose rows 0 are c, by iterated
    vector-matrix products; no matrix powers are formed."""
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    outs = []
    for M in (A.P, A_a.P):
        H = np.empty((horizon + 1, c.size))
        H[0] = c
        row = c
        for m in range(1, horizon + 1):
            row = row @ M
            H[m] = row
        outs.append(H)
    return outs[0], outs[1]


def exact_fits(T_hold: int, n_states: int) -> bool:
    """Whether the exact LP at T_hold on n_states states is within
    EXACT_LP_CAP."""
    return T_hold * n_states <= EXACT_LP_CAP


def check_plan(u, n_states: int | None = None) -> np.ndarray:
    """u as a float plan (T, n_states); InvalidInputError when it has
    another shape or an entry that is not finite or below -1e-12."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or (n_states is not None and u.shape[1] != n_states):
        raise InvalidInputError(f"a plan needs one row per step and one column per state, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise InvalidInputError("plan entries must be finite")
    if np.any(u < -1e-12):
        raise InvalidInputError("plan entries must be nonnegative")
    return u


def delta_p_by_stepping(u: np.ndarray, fleet: CharacterizedFleet, horizon: int) -> np.ndarray:
    """Reduction trace dP[k], k = 0..horizon, of plan u on `fleet` by direct
    population stepping (independent of the kernel algebra; used for
    cross-checks and plan certification): the nominal population x and the
    actuated x_a move on as x' = A (x - u[k]), x_a' = A_a (x_a + u[k]).
    dP[k] is measured from the unactuated trajectory c A^k x_0, stepped
    alongside, as every LP and the inner recursion measure it; that is
    P_nom only when x_0 is stationary.  Matrices that are not column-
    stochastic raise NumericalFailureError before any step."""
    A, A_a, x_0, c = fleet.A.P, fleet.A_a.P, fleet.x_0, fleet.c
    fleet.A.validate()
    fleet.A_a.validate()
    u = check_plan(u, x_0.size)
    T = u.shape[0]
    x, x_a, free = x_0, np.zeros_like(x_0), x_0
    out = np.zeros(horizon + 1)
    zero = np.zeros_like(x_0)
    for k in range(horizon):
        # project onto the admissible set 0 <= u[k] <= x: LP answers carry
        # solver-level slack, and shrinking u only understates the reduction
        u_k = np.minimum(np.clip(u[k], 0.0, None), x) if k < T else zero
        x, x_a = A @ (x - u_k), A_a @ (x_a + u_k)
        free = A @ free
        out[k + 1] = float(c @ free) - float(c @ (x + x_a))
    return out


@dataclass
class ReachHoldSet:
    """Boundary of the achievable (P_hold, T_hold) region for one method.

    The frontier is two arrays: the holds T_hold_steps, strictly
    ascending, and their reductions P_hold_kw, finite, nonincreasing
    (within 1e-9 of P_on_total) and at most P_nom.  An LP set keeps each
    hold's unclipped LP value in raw_objective_kw; horizon_limited says
    that the longest hold reached T_max_steps, the last step the route
    looked at.  `regime` records the operating point and normalization
    so a set is self-describing on disk.
    """

    T_hold_steps: np.ndarray
    P_hold_kw: np.ndarray
    method: str
    regime: dict
    raw_objective_kw: np.ndarray | None = None
    horizon_limited: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InvalidInputError(f"method must be one of {METHODS}, got {self.method!r}")
        T = self.T_hold_steps = np.asarray(self.T_hold_steps, dtype=int)
        P = self.P_hold_kw = np.asarray(self.P_hold_kw, dtype=float)
        raw = self.raw_objective_kw
        if raw is not None:
            raw = self.raw_objective_kw = np.asarray(raw, dtype=float)
        if T.ndim != 1 or P.shape != T.shape or raw is not None and raw.shape != T.shape:
            raise InvalidInputError("a frontier needs one reduction, and at most one raw value, per hold")
        bad = ~((0.0 <= P) & (P < np.inf))  # NaN fails too
        if bad.any():
            raise InvalidInputError(f"P_hold_kw must be finite and >= 0, got {float(P[bad][0])}")
        if (T < 0).any():
            raise InvalidInputError(f"T_hold_steps must be >= 0, got {int(T.min())}")
        tol = 1e-9 * max(1.0, float(self.regime.get("P_on_total_kw", 1.0)))
        fall, rise = np.flatnonzero(T[1:] <= T[:-1]), np.flatnonzero(P[1:] > P[:-1] + tol)
        if fall.size:
            i = fall[0] + 1
            if T[i] == T[i - 1]:
                raise FrontierMonotonicityError(f"duplicate T_hold {T[i]} on frontier")
            raise FrontierMonotonicityError(f"T_hold {T[i]} follows {T[i - 1]}: holds must ascend")
        if rise.size:
            i = rise[0] + 1
            raise FrontierMonotonicityError(
                f"P_hold increases along T_hold at T={T[i]}: {float(P[i])} after {float(P[i - 1])}"
            )
        if T.size and "P_nom_kw" in self.regime and P.max() > self.regime["P_nom_kw"] + tol:
            raise FrontierMonotonicityError(
                f"boundary P_hold {float(P.max())} exceeds P_nom {self.regime['P_nom_kw']}"
            )


# a shorter hold stays on a frontier only when its P_hold beats the longer
# holds' by more than this fraction; smaller gaps are solver rounding
FRONTIER_TIE_REL = 1e-9


def prune_to_frontier(T_hold, P_hold) -> np.ndarray:
    """Indices of the samples (T_hold[i], P_hold[i]) that form a frontier,
    by ascending hold: the largest P_hold per T_hold (the first of equal
    ones), then, longest hold first, only the holds whose P_hold beats the
    longer holds kept by more than FRONTIER_TIE_REL.  Samples that hold
    for no step or reduce nothing are dropped: they claim nothing."""
    T, P = np.asarray(T_hold), np.asarray(P_hold, dtype=float)
    idx = np.flatnonzero((T >= 1) & (P > 0.0))
    idx = idx[np.lexsort((-P[idx], T[idx]))]  # stable: equal samples keep their order
    best = idx[np.diff(T[idx], prepend=0) != 0][::-1]  # the first of each hold, longest first
    keep, run_max = [], -np.inf
    for i, p in zip(best.tolist(), P[best].tolist()):
        if p > run_max + FRONTIER_TIE_REL * max(1.0, run_max):
            keep.append(i)
            run_max = p
    return np.array(keep[::-1], dtype=int)


def invariant_support(A: TransitionMatrix, x_0: np.ndarray) -> np.ndarray:
    """Sorted indices of the smallest state set that contains supp(x_0)
    and that A maps into itself (reachability over A's nonzero pattern)."""
    return np.flatnonzero(reachable(A.P, x_0 > 0.0)[0])


def _hold_block(d: np.ndarray, T: int, steps: np.ndarray, states: np.ndarray) -> tuple:
    """Entries (row, col, value) of the variables v[steps[i]][states[i]]
    in the hold rows P - sum_{m<k} d[k-m] @ v[m] <= 0, k = 1..T: column i
    holds -d[k - steps[i]][states[i]] in row k-1 for k > steps[i].  P's
    column (a one in every hold row) is the caller's.  v is the plan u
    for the outer LP and the unactuated mass w for the exact LP, whose
    kernel is then -e."""
    counts = T - steps
    col = np.repeat(np.arange(steps.size), counts)
    lag = np.arange(col.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1  # k - m
    return steps[col] + lag - 1, col, -d[lag, states[col]]


def solve_exact(
    T_hold: int, fleet: CharacterizedFleet, warm: LpSolution | None = None
) -> tuple[float, np.ndarray, LpSolution]:
    """Exact boundary value of `fleet` at T_hold by the LP over the
    unactuated mass.

    w[k] = x[k] - u[k] is the mass left unactuated after step k; it moves
    on as x[k+1] = A w[k] from x[0] = x_0, so the plan is
    u[0] = x_0 - w[0] and u[k] = A w[k-1] - w[k], and admissibility
    (u >= 0) reads w[0] <= x_0 and w[k] <= A w[k-1].  Substituting u into
    the hold rows gives dP[k] = d[k] @ x_0 - sum_{m<k} e[k-m] @ w[m] with
    e[1] = d[1] and e[j] = d[j] - d[j-1] A.  The LP is posed on S =
    invariant_support (A^k x_0 vanishes off S, so every admissible plan
    does too) over P, then a variable fixed at 1 that carries the x_0
    terms, so every right-hand side is 0 and the solver's violation check
    keeps its unit scale, then w[0], w[1], ...  Its rows come per step
    k = 1..T: hold row k, then the admissibility rows of w[k-1].  So the
    LP at a longer hold extends this one by appended rows and columns,
    and `warm`, the LpSolution of an earlier call at a shorter hold on
    the same fleet, restarts from that hold's basis (`lp.solve`).  The
    plan comes back on all states and is replayed by delta_p_by_stepping.
    An answer whose plan falls more than EXACT_REPLAY_TOL_REL P_on_total
    below the value at any step of the hold is refused like one that
    fails certification, and re-solved cold on the next rung of
    `lp.LADDER`; NumericalFailureError once no rung gives an answer that
    certifies and replays.  The returned LpSolution keeps its solver for
    the next hold until it is released.  Desk-scale only: refuses
    problems with T_hold * n_states above EXACT_LP_CAP.
    """
    x_0, A = fleet.x_0, fleet.A
    n = x_0.size
    if T_hold < 1:
        raise InvalidInputError(f"T_hold must be >= 1, got {T_hold}")
    if not exact_fits(T_hold, n):
        raise InvalidInputError(
            f"exact LP size {T_hold * n} exceeds cap {EXACT_LP_CAP}; use inner/outer"
        )
    if fleet.h.shape[0] <= T_hold:
        raise InvalidInputError("kernels horizon too short for requested T_hold")
    T = T_hold
    cols = invariant_support(A, x_0)
    S = cols.size
    n_w = T * S
    A_S = A.P[np.ix_(cols, cols)]
    x_S = x_0[cols]
    # over the fleet's whole horizon, so that a row's coefficients do not
    # depend on T and every longer hold's LP extends this one bit for bit
    d = fleet.h[:, cols] - fleet.h_a[:, cols]
    e = d.copy()  # e[0] is never read
    e[2:] -= d[1:-1] @ A_S
    one_x = -(d[1:] @ x_S)[:T]
    # variables: P, one, then w[0..T-1] on S flattened.  Rows come in step
    # blocks of 1 + S: hold row k, then the admissibility rows of w[k-1];
    # hold[k-1] and adm[k*S + s] are their indices
    hold, adm = (S + 1) * np.arange(T), 1 + np.arange(n_w) + np.arange(n_w) // S
    h_row, h_col, h_val = _hold_block(-e, T, np.repeat(np.arange(T), S), np.tile(np.arange(S), T))
    a_row, a_col = np.nonzero(A_S)
    shift = S * np.arange(T - 1)[:, None]  # -A_S pairs w[k-1] with the rows of w[k]
    G = ColumnMatrix.from_entries(
        [
            (hold, np.zeros(T, dtype=int), np.ones(T)),
            (hold, np.ones(T, dtype=int), one_x),
            (hold[h_row], 2 + h_col, h_val),
            # admissibility rows: w[0] - x_S <= 0 and w[k] - A_S w[k-1] <= 0
            (adm, 2 + np.arange(n_w), np.ones(n_w)),
            (adm[:S], np.ones(S, dtype=int), -x_S),
            (adm[S + shift + a_row].ravel(), (2 + shift + a_col).ravel(), np.tile(-A_S[a_row, a_col], T - 1)),
        ],
        (T + n_w, n_w + 2),
    )
    c_obj = np.zeros(n_w + 2)
    c_obj[0] = 1.0
    lo = np.zeros(n_w + 2)
    hi = np.full(n_w + 2, np.inf)
    lo[1] = hi[1] = 1.0
    lp = LinearProgram(c=c_obj, G=G, h=np.zeros(T + n_w), lo=lo, hi=hi)
    sol, refused = warm, None
    while True:  # handed back, a refused answer is re-solved on the next rung
        sol = solve(lp, warm=sol)
        if sol.status != OPTIMAL:
            raise NumericalFailureError(refused or f"exact LP did not solve cleanly: status {sol.status}")
        w = sol.z[2:].reshape(T, S)
        u = np.zeros((T, n))
        u[0, cols] = x_S - w[0]
        u[1:, cols] = w[:-1] @ A_S.T - w[1:]
        value = float(sol.z[0])
        plan = np.clip(u, 0.0, None)
        margin = float(delta_p_by_stepping(plan, fleet, T)[1:].min()) - value
        if margin >= -EXACT_REPLAY_TOL_REL * fleet.regime["P_on_total_kw"]:
            return value, plan, sol
        sol.release()  # the re-solve is cold
        refused = f"exact plan at T={T} replays {margin!r} kW below its value {value!r} kW"


def inner_profile(fleet: CharacterizedFleet) -> np.ndarray:
    """The greedy allocation alpha_1 of one fleet at P_hold = P_nom with no
    budget, over its T_max steps; `fleet.inner` keeps it.  Every target's
    allocation is r alpha_1 until the budget runs out (see the module
    docstring), so `inner_point` and `inner_values` read it.

    alpha_1[k] is the least allocation that keeps dP[k+1] >= P_nom.  With
    rec[m] = c A_a^{m+1} x_0 and A x_0 = x_0, dP[k+1] = sum_{n<=k}
    alpha[n] (P_nom - rec[k-n]), so alpha[k] covers what the committed
    prefix misses, divided by the gain 1 - rec[0] / P_nom of a freshly
    actuated cohort.  No finite alpha[k] helps when that gain is not
    positive, so alpha_1 holds inf from the first step no finite
    allocation covers."""
    x_0, T_max, p_nom = fleet.x_0, fleet.T_max, fleet.p_nom_kw
    rec = fleet.h_a[1:] @ x_0  # c A_a^m x_0, m = 1..horizon
    gain = 1.0 - float(rec[0]) / p_nom
    alpha_1 = np.zeros(T_max)
    committed = 0.0
    for k in range(T_max):
        lb = 1.0 if k == 0 else 1.0 - committed + float(alpha_1[:k] @ rec[k:0:-1]) / p_nom
        if gain <= 0.0:
            a = np.inf if lb > 0.0 else 0.0
        else:
            a = max(lb / gain, 0.0)
        if a == np.inf:  # every positive target depletes here
            alpha_1[k:] = np.inf
            break
        alpha_1[k] = a
        committed += a
    return alpha_1


def inner_point(P_hold: float, fleet: CharacterizedFleet) -> np.ndarray:
    """Greedy-minimal feasible allocation alpha for P_hold, whose plan is
    alpha[k] x_0, from the fleet's one profile `fleet.inner`: r alpha_1
    until the unit budget depletes at the first step k with
    r (alpha_1[0] + ... + alpha_1[k]) >= 1, whose share is what is left of
    the budget.  It holds P_hold at every hold whose inner_values entry is
    P_hold or more."""
    alpha_1, p_nom = fleet.inner, fleet.p_nom_kw
    if not -1e-12 * p_nom <= P_hold <= p_nom * (1.0 + 1e-12):
        raise InvalidInputError(f"P_hold {P_hold} outside [0, P_nom={p_nom}]")
    r = float(np.clip(P_hold, 0.0, p_nom)) / p_nom
    alpha = np.zeros(alpha_1.size)
    if r > 0.0:  # at r = 0 the plan is empty, and 0 * inf would be NaN
        spent = np.cumsum(alpha_1)
        out = r * spent >= 1.0
        if out.any():
            depletion = int(np.argmax(out))
            alpha[:depletion] = r * alpha_1[:depletion]
            alpha[depletion] = 1.0 - (r * spent[depletion - 1] if depletion else 0.0)
        else:
            alpha[:] = r * alpha_1
    return alpha


def inner_values(fleet: CharacterizedFleet) -> np.ndarray:
    """The inner value at every hold T = 1..T_max: P_nom min(1, 1 /
    spent[T-1]), spent = cumsum(alpha_1) of the fleet's one profile, and
    0 where alpha_1 is inf (no gain).  With r = P_hold / P_nom:

    * at r <= 1 / spent[T-1] the budget lasts through step T-1, so the
      plan there is r alpha_1, which holds r P_nom at every step up to T
      by the greedy construction;
    * at a larger r the budget runs out at a step k_d <= T-1 where
      alpha_1[k_d] > 0, short by delta = r spent[k_d] - 1 > 0.  Since
      alpha_1[k_d] covered its target exactly, dP[k_d+1] = r P_nom -
      delta (h_1 - h_a_1) @ x_0 < r P_nom, so the hold ends before T.
    """
    return fleet.p_nom_kw * np.minimum(1.0, 1.0 / np.cumsum(fleet.inner))


def inner_boundary(fleet: CharacterizedFleet) -> ReachHoldSet:
    """Inner frontier of `fleet`: inner_values, pruned; horizon-limited when
    its longest hold is T_max."""
    values = inner_values(fleet)
    T = np.arange(1, values.size + 1)
    keep = prune_to_frontier(T, values)
    limited = keep.size > 0 and T[keep[-1]] == fleet.T_max
    return ReachHoldSet(T[keep], values[keep], INNER, fleet.regime, horizon_limited=bool(limited))


def inner_p_at(T_hold: int, fleet: CharacterizedFleet) -> float:
    """The inner value of `fleet` at hold T_hold, which lies in 1..T_max."""
    if not 1 <= T_hold <= fleet.T_max:
        raise InvalidInputError(f"T_hold must lie in 1..T_max={fleet.T_max}, got {T_hold}")
    return float(inner_values(fleet)[T_hold - 1])


def _outer_columns(d: np.ndarray, T: int, steps: np.ndarray, states: np.ndarray) -> ColumnMatrix:
    """Outer-master columns of the plan entries u[steps[i]][states[i]]:
    their hold rows, then the budget row sum u <= 1."""
    K = steps.size
    budget = (np.full(K, T), np.arange(K), np.ones(K))
    return ColumnMatrix.from_entries([_hold_block(d, T, steps, states), budget], (T + 1, K))


def _knapsack(price: np.ndarray, cap: np.ndarray) -> tuple[float, np.ndarray]:
    """The fractional knapsack with budget 1: fill the capacities cap,
    best positive price first, until the budget is spent.  Returns its
    value and the columns it fills, best first."""
    order = np.argsort(-price, kind="stable")
    order = order[price[order] > 0.0]
    size = cap[order]
    amount = np.clip(1.0 - (np.cumsum(size) - size), 0.0, size)
    return float(price[order] @ amount), order[amount > 0.0]


def solve_outer(T_hold: int, fleet: CharacterizedFleet) -> tuple[float, np.ndarray, LpSolution]:
    """Upper bound of `fleet` at T_hold: the capacity-relaxed LP, by column
    generation.

    The LP maximizes P subject to the hold rows with kernel d = h - h_a,
    the unit budget sum u <= 1, and 0 <= u[m][s] <= x_0[s] for s in
    supp(x_0), where x_0 is the fleet's stationary occupancy (A x_0 =
    x_0).  Every admissible plan meets these: the unactuated mass moves
    on as x[k+1] = A (x[k] - u[k]) <= A x[k], so u[k] <= x[k] <=
    A^k x_0 = x_0, which also keeps u on supp(x_0); and the fleet holds
    one unit of mass.  So the value bounds the exact LP's from above.

    A master LP holds P, in column 0, and an active set of (step, state)
    columns.  With y its hold-row duals, clipped to >= 0 and scaled to
    sum 1, column (m, s) prices at w = sum_{j<=T-m} y[m+j-1] d[j][s],
    and by weak duality the fractional knapsack of the prices (capacities
    x_0, budget 1) bounds the full LP from above.  Each round appends,
    per step, its best inactive column if that prices above the master's
    budget dual (scaled with y), and every inactive column the knapsack
    fills, and re-solves the master warm, from the last round's basis; no
    column is dropped.  The first round prices a flat hold and also
    takes all of step 0, so the first master holds the plan u[0] = x_0
    (the whole fleet actuated at once), which reaches P_nom on short
    holds.  The loop stops once the knapsack bound is within
    OUTER_CG_GAP_REL of the value, and raises NumericalFailureError after
    OUTER_CG_MAX_ROUNDS rounds.
    """
    x_0 = fleet.x_0
    if T_hold < 1:
        raise InvalidInputError(f"T_hold must be >= 1, got {T_hold}")
    if fleet.h.shape[0] <= T_hold:
        raise InvalidInputError("kernels horizon too short for requested T_hold")
    T = T_hold
    cols = np.flatnonzero(x_0 > 0.0)
    S = cols.size
    d = fleet.h - fleet.h_a
    D = d[1 : T + 1][:, cols]  # D[j-1] = d[j] on the support
    cap = np.tile(x_0[cols], T)  # cap[m*S + s]
    hankel = np.arange(T)[:, None] + np.arange(T)[None, :]  # m + j - 1
    y = np.full(T, 1.0 / T)  # the first round prices against a flat hold
    beta = -np.inf  # and takes every step's best column
    active = np.zeros(T * S, dtype=bool)
    added = []  # the master's columns after P, in the order added
    G = ColumnMatrix(np.array([0, T]), np.arange(T), np.ones(T), (T + 1, 1))  # P in every hold row
    hi = np.array([np.inf])
    h_vec = np.zeros(T + 1)
    h_vec[T] = 1.0
    value, sol = -np.inf, None
    for _ in range(OUTER_CG_MAX_ROUNDS):
        price = (np.concatenate([y, np.zeros(T)])[hankel] @ D).ravel()  # price[m*S + s]
        bound, filled = _knapsack(price, cap)
        if sol is not None and bound - value <= OUTER_CG_GAP_REL * max(1.0, abs(value)):
            break
        best = np.where(active, -np.inf, price).reshape(T, S).argmax(axis=1) + np.arange(T) * S
        # a mask rather than np.union1d, whose np.unique imports all of
        # numpy.ma on its first call in a process
        take = np.zeros(T * S, dtype=bool)
        take[best[price[best] > beta]] = True
        take[filled] = True
        if sol is None:  # and step 0 on every state: the plan that actuates the whole fleet at once
            take[:S] = True
        new = np.flatnonzero(take & ~active)
        if new.size == 0:
            raise NumericalFailureError(
                f"outer pricing at T={T} found no new column for a gap of {bound - value!r}"
            )
        active[new] = True
        added.append(new)
        G = G.append(_outer_columns(d, T, new // S, cols[new % S]))
        hi = np.concatenate([hi, cap[new]])
        c_obj = np.zeros(G.shape[1])
        c_obj[0] = 1.0
        sol = solve(LinearProgram(c=c_obj, G=G, h=h_vec, lo=np.zeros(G.shape[1]), hi=hi), warm=sol)
        if sol.status != OPTIMAL:
            raise NumericalFailureError(f"outer LP did not solve cleanly: status {sol.status}")
        value = float(sol.z[0])
        duals = np.clip(sol.duals_ineq, 0.0, None)
        duals /= duals[:T].sum()
        y, beta = duals[:T], duals[T]
    else:
        raise NumericalFailureError(
            f"outer column generation at T={T} did not close its gap in {OUTER_CG_MAX_ROUNDS} rounds"
        )
    sol.release()  # the hold's model goes now, not when the caller drops sol
    z = np.zeros(T * S)
    z[np.concatenate(added)] = sol.z[1:]
    u = np.zeros((T, x_0.size))
    u[:, cols] = z.reshape(T, S)
    return value, np.clip(u, 0.0, None), sol


def lp_frontier(fleet: CharacterizedFleet, holds, values, method: str) -> ReachHoldSet:
    """Frontier of `fleet` from one LP value per hold: each value is
    clipped to [0, P_nom] (the true reduction can never exceed nominal
    demand) and kept as the hold's raw_objective_kw, then pruned."""
    T, raw = np.asarray(holds, dtype=int), np.asarray(values, dtype=float)
    P = np.clip(raw, 0.0, fleet.p_nom_kw)
    keep = prune_to_frontier(T, P)
    return ReachHoldSet(T[keep], P[keep], method, fleet.regime, raw_objective_kw=raw[keep])


def outer_boundary(fleet: CharacterizedFleet, t_grid: np.ndarray) -> ReachHoldSet:
    """Outer frontier of `fleet` over hold durations, one relaxed LP per
    hold, assembled by lp_frontier."""
    holds = np.asarray(t_grid, dtype=int)
    return lp_frontier(fleet, holds, [solve_outer(int(T), fleet)[0] for T in holds], OUTER)


@dataclass(frozen=True)
class OperatingPoint:
    """One operating point of a fleet: its unit model, bin grid, nominal
    and raised setpoints, deadband, ambient temperature, connected load
    and step length.  Both setpoints' deadbands must sit strictly inside
    the grid."""

    params: TclParams
    grid: BinGrid
    T_set: float
    T_set_new: float
    deadband: float
    T_amb: float
    P_on_total_kw: float
    dt_minutes: float = 1.0

    # the scalar fields, which a regime records
    SCALARS = ("T_set", "T_set_new", "deadband", "T_amb", "P_on_total_kw", "dt_minutes")

    def __post_init__(self) -> None:
        for name in self.SCALARS:
            if not np.isfinite(getattr(self, name)):
                raise InvalidConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("dt_minutes", "P_on_total_kw", "deadband"):
            if not getattr(self, name) > 0.0:
                raise InvalidConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("T_set", "T_set_new"):
            setpoint = getattr(self, name)
            if not self.grid.band_strictly_inside(setpoint, self.deadband):
                raise InvalidConfigurationError(
                    f"{name} band [{setpoint - self.deadband / 2}, {setpoint + self.deadband / 2}] is not "
                    f"strictly inside the grid [{self.grid.T_min}, {self.grid.T_max}]"
                )

    def regime(self, P_nom: float, T_max: int) -> dict:
        """The sidecar block that records this point and its normalization."""
        return {
            **{name: getattr(self, name) for name in self.SCALARS},
            "T_min": self.grid.T_min,
            "T_max_grid": self.grid.T_max,
            "n_bins": self.grid.n_bins,
            "P_nom_kw": P_nom,
            "T_max_steps": T_max,
        }


@dataclass
class CharacterizedFleet:
    """Matrices, stationary state, readout and kernels for one operating
    point: the one argument of every bound and of the replay.
    `characterize` makes x_0 the stationary occupancy of A, as the outer
    bound's proof needs.  The sidecar `regime` is the one record of
    P_on_total_kw, P_nom_kw and T_max_steps."""

    A: TransitionMatrix
    A_a: TransitionMatrix
    x_0: np.ndarray
    c: np.ndarray  # the readout output_vector
    h: np.ndarray  # the kernels of response_kernels, up to T_max + 1 steps
    h_a: np.ndarray
    regime: dict

    @property
    def p_nom_kw(self) -> float:
        """Nominal demand c @ x_0, as the regime records it."""
        return self.regime["P_nom_kw"]

    @property
    def T_max(self) -> int:
        """The longest hold, in steps, the fleet was characterized for."""
        return self.regime["T_max_steps"]

    @cached_property
    def inner(self) -> np.ndarray:
        """The fleet's one inner profile alpha_1 (`inner_profile`), built on
        first use."""
        return inner_profile(self)


def _program(op: OperatingPoint, setpoint: float) -> tuple:
    """Arguments of estimate_transition_matrix for the thermostat program
    at `setpoint`; equal tuples give bitwise equal matrices."""
    return (op.params, op.grid, setpoint, op.deadband, op.T_amb, op.dt_minutes)


def _characterized(points: list[OperatingPoint], T_max: int):
    """Yield each point's matrices, stationary state and kernels.  Each
    distinct thermostat program is built once and each distinct baseline
    occupancy solved once, so points that differ only in T_set_new share
    their baseline."""
    matrices: dict[tuple, TransitionMatrix] = {}
    occupancy: dict[tuple, np.ndarray] = {}
    for op in points:
        base, actuated = _program(op, op.T_set), _program(op, op.T_set_new)
        for key in (base, actuated):
            if key not in matrices:
                matrices[key] = estimate_transition_matrix(*key)
        if base not in occupancy:
            occupancy[base] = stationary_distribution(matrices[base]).x
        A, A_a, x_0 = matrices[base], matrices[actuated], occupancy[base]
        c = output_vector(op.grid, op.P_on_total_kw)
        h, h_a = response_kernels(A, A_a, c, horizon=T_max + 1)
        yield CharacterizedFleet(A, A_a, x_0, c, h, h_a, op.regime(float(c @ x_0), T_max))


def characterize(op: OperatingPoint, T_max: int = DEFAULT_T_MAX) -> CharacterizedFleet:
    """Build both matrices and their kernels at one operating point."""
    return next(_characterized([op], T_max))


def sweep(points: list[OperatingPoint], T_max: int = DEFAULT_T_MAX) -> list[ReachHoldSet]:
    """Inner frontier at each point, characterized as `_characterized`
    shares matrices and baselines between points."""
    return [inner_boundary(fleet) for fleet in _characterized(points, T_max)]


def save_set(rh_set: ReachHoldSet, csv_path) -> None:
    """Write the frontier CSV plus a JSON sidecar with the regime block
    and the flags of the holds that carry one (horizon_limited, or a
    raw_objective_kw); each hold's P_hold lives in the CSV only."""
    csv_path = str(csv_path)
    dt_min = float(rh_set.regime.get("dt_minutes", 1.0))
    T = rh_set.T_hold_steps.tolist()
    with open(csv_path, "w") as fh:
        fh.write("T_hold_steps,T_hold_hours,P_hold_kW,method\n")
        for t, p in zip(T, rh_set.P_hold_kw.tolist()):
            fh.write(f"{t},{t * dt_min / 60.0!r},{p!r},{rh_set.method}\n")
    raw = [None] * len(T) if rh_set.raw_objective_kw is None else rh_set.raw_objective_kw.tolist()
    limited = [False] * (len(T) - 1) + [rh_set.horizon_limited]  # the longest hold's flag
    sidecar = {
        "method": rh_set.method,
        "regime": rh_set.regime,
        "points": [
            {"T_hold_steps": t, "horizon_limited": h, "raw_objective_kw": r}
            for t, h, r in zip(T, limited, raw)
            if h or r is not None
        ],
    }
    write_json(sidecar, _sidecar_path(csv_path))


def write_json(payload: dict, path) -> None:
    """Write payload as indented JSON with sorted keys and a final
    newline: the one format of every JSON artifact."""
    with open(str(path), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar_path(csv_path: str) -> str:
    return csv_path[: -len(".csv")] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"


def load_set(csv_path) -> ReachHoldSet:
    """Read a frontier written by save_set; a malformed row or sidecar, a
    non-finite regime power, a step that is not positive and finite, a row
    whose method is not the sidecar's, rows that do not form a frontier,
    or sidecar flags that save_set cannot have written raise
    InvalidInputError.  Those flags are: a listed hold with no CSV row, a
    horizon_limited that is not a JSON boolean or marks another hold than
    the longest, and raw_objective_kw values that are not finite numbers
    or are given for some holds only."""
    csv_path = str(csv_path)
    sidecar_path = _sidecar_path(csv_path)
    with open(sidecar_path) as fh:
        try:
            sidecar = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"sidecar {sidecar_path} is not valid JSON: {exc}") from exc
    if not isinstance(sidecar, dict) or not {"method", "regime"} <= sidecar.keys():
        raise InvalidInputError(f"sidecar {sidecar_path} lacks a method or regime")
    if not isinstance(sidecar["regime"], dict):
        raise InvalidInputError(f"sidecar {sidecar_path} has a regime that is not an object")
    for key in ("P_on_total_kw", "P_nom_kw", "dt_minutes"):
        value = sidecar["regime"].get(key, 1.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidInputError(f"sidecar {sidecar_path} has a non-numeric regime {key}: {value!r}")
        # NaN fails this comparison, which unlike np.isfinite takes any int
        low = 0.0 if key == "dt_minutes" else -np.inf
        if not low < value < np.inf:
            raise InvalidInputError(f"sidecar {sidecar_path} has an unusable regime {key}: {value!r}")
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != "T_hold_steps,T_hold_hours,P_hold_kW,method":
            raise InvalidInputError(f"unrecognized frontier header: {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    T, P = [], []
    for row in rows:
        try:
            t_str, _, p_str, method = row
            T.append(int(t_str))
            P.append(float(p_str))
        except ValueError as exc:
            raise InvalidInputError(f"frontier row {','.join(row)!r} in {csv_path}: {exc}") from exc
        if method != sidecar["method"]:
            raise InvalidInputError(
                f"frontier row {','.join(row)!r} in {csv_path} says {method!r}, its sidecar {sidecar['method']!r}"
            )
    try:
        flags = {p["T_hold_steps"]: p for p in sidecar.get("points", [])}
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"sidecar {sidecar_path} has malformed points: {exc!r}") from exc
    holds = set(T)
    for t, flag in flags.items():
        limited, value = flag.get("horizon_limited", False), flag.get("raw_objective_kw")
        if t not in holds:
            raise InvalidInputError(f"sidecar {sidecar_path} lists hold {t!r}, which has no row in {csv_path}")
        if not isinstance(limited, bool):
            raise InvalidInputError(f"sidecar {sidecar_path} has horizon_limited {limited!r} at T={t}, not a boolean")
        if limited and t != max(T):
            raise InvalidInputError(f"sidecar {sidecar_path} marks T={t}, not its longest hold, horizon-limited")
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, (int, float)) or not -np.inf < value < np.inf
        ):
            raise InvalidInputError(f"sidecar {sidecar_path} has an unusable raw_objective_kw at T={t}: {value!r}")
    raw = [flags.get(t, {}).get("raw_objective_kw") for t in T]
    given = sum(r is not None for r in raw)
    if 0 < given < len(raw):
        raise InvalidInputError(f"sidecar {sidecar_path} gives raw_objective_kw for {given} of {len(raw)} holds")
    try:
        return ReachHoldSet(
            T, P, sidecar["method"], sidecar["regime"],
            raw_objective_kw=raw if given else None,
            horizon_limited=any(flag.get("horizon_limited", False) for flag in flags.values()),
        )
    except (FrontierMonotonicityError, InvalidInputError) as exc:
        raise InvalidInputError(f"{csv_path} is not a frontier: {exc}") from exc
