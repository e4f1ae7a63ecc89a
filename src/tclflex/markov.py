"""Markov-chain bin model of an aggregate TCL population.

State space: N temperature bins for compressor-off units followed by N
bins for compressor-on units (2N states total, cold to hot within each
block).  A column-stochastic matrix A maps the population fraction
vector forward one timestep; its columns follow in closed form from one
exact step of a representative unit spread uniformly over each bin.

Population fractions live in [0, 1] and sum to one over the whole fleet;
multiplying by the fleet's connected power via the output vector turns
occupancy of the on-block into aggregate demand in kW.  This module
builds the model; `reachhold.delta_p_by_stepping` steps a plan through
it.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    InvalidConfigurationError,
    InvalidInputError,
    NumericalFailureError,
)
from .etp import TclParams, apply_thermostat, step_maps


@dataclass(frozen=True)
class BinGrid:
    """Uniform temperature grid over [T_min, T_max] with n_bins bins,
    by default 40 bins on 18-24 degC.

    Bins are half-open [edge_i, edge_{i+1}) except the last, which is
    closed.  State indices 0..n_bins-1 are the off block and
    n_bins..2*n_bins-1 the on block, both ordered cold to hot.
    """

    T_min: float = 18.0
    T_max: float = 24.0
    n_bins: int = 40

    def __post_init__(self) -> None:
        if not self.T_max > self.T_min:
            raise InvalidInputError(f"need T_max > T_min, got [{self.T_min}, {self.T_max}]")
        if self.n_bins < 1:
            raise InvalidInputError(f"n_bins must be >= 1, got {self.n_bins}")

    @property
    def delta_tau(self) -> float:
        return (self.T_max - self.T_min) / self.n_bins

    @property
    def n_states(self) -> int:
        return 2 * self.n_bins

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.T_min, self.T_max, self.n_bins + 1)

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

    def temp_bin(self, T_a) -> np.ndarray:
        """Temperature bin index (0..n_bins-1); excursions beyond the grid
        clip into the boundary bins.  Non-finite temperatures raise
        InvalidInputError."""
        b = np.array(T_a, dtype=float)  # a copy, binned in place
        if not np.isfinite(b).all():
            raise InvalidInputError("temperatures must be finite to be binned")
        b -= self.T_min
        b /= self.delta_tau
        # clip in float before the cast, which has no int for a far excursion
        return np.clip(np.floor(b, out=b), 0, self.n_bins - 1, out=b).astype(int)

    def state_index(self, T_a, on) -> np.ndarray:
        """Full state index combining temperature bin and mode block: the
        one binning rule, of the matrix and of the micro replay's pools."""
        return self.temp_bin(T_a) + np.multiply(on, self.n_bins, dtype=int)

    def on_mask(self) -> np.ndarray:
        """Boolean mask of length 2*n_bins selecting the on block."""
        m = np.zeros(self.n_states, dtype=bool)
        m[self.n_bins :] = True
        return m

    def band_strictly_inside(self, T_set: float, deadband: float) -> bool:
        return self.T_min < T_set - 0.5 * deadband and T_set + 0.5 * deadband < self.T_max


@dataclass
class TransitionMatrix:
    """One-step transition matrix with its operating point.

    P[j, i] is the probability of moving from state i to state j over
    one dt under thermostat control at (T_set, deadband) and ambient
    T_amb.  Columns sum to one.
    """

    P: np.ndarray
    grid: BinGrid
    dt_minutes: float
    T_set: float
    T_amb: float
    deadband: float

    def validate(self) -> None:
        n = self.grid.n_states
        if self.P.shape != (n, n):
            raise InvalidInputError(f"matrix shape {self.P.shape} does not match grid ({n} states)")
        # phrased so that a NaN entry fails each test
        if not np.all(self.P >= 0.0):
            raise NumericalFailureError("transition matrix has negative or NaN entries")
        worst = np.abs(self.P.sum(axis=0) - 1.0).max()
        if not worst <= 1e-9:
            raise NumericalFailureError(f"column sums deviate from 1 by {worst:.3e} (> 1e-9)")


def estimate_transition_matrix(
    params: TclParams,
    grid: BinGrid,
    T_set: float,
    deadband: float,
    T_amb: float,
    dt_minutes: float = 1.0,
) -> TransitionMatrix:
    """Exact one-step transition matrix of the bin model.

    A unit drawn uniformly inside a bin, with its mass node at the
    quasi-steady value T_a + Q_m/H_m, takes one exact ETP step in the
    bin's mode.  The next air temperature s*T_a + c0 is affine in T_a
    with slope s > 0, so the bin maps onto an interval with uniform law.
    That interval is cut at the interior bin edges and the two thermostat
    edges; each piece lands in one state, with probability equal to its
    share of the interval's length.
    """
    if not grid.band_strictly_inside(T_set, deadband):
        raise InvalidConfigurationError(
            f"deadband [{T_set - deadband / 2}, {T_set + deadband / 2}] not strictly inside "
            f"grid [{grid.T_min}, {grid.T_max}]"
        )
    N = grid.n_bins
    edges = grid.edges
    cuts = np.sort(np.concatenate([edges[1:-1], [T_set - 0.5 * deadband, T_set + 0.5 * deadband]]))
    cuts = np.concatenate([[-np.inf], cuts, [np.inf]])
    P = np.zeros((2 * N, 2 * N))
    (a00, a01, _, _), b_d = step_maps(asdict(params), T_amb, dt_minutes)
    s = a00 + a01
    if not s > 0.0:
        raise NumericalFailureError(f"one-step temperature map has slope {s!r} <= 0")
    for on in (False, True):
        c0 = a01 * params.Q_m / params.H_m + b_d[on][0]
        lo = s * edges[:-1] + c0
        hi = s * edges[1:] + c0
        pts = np.clip(cuts, lo[:, None], hi[:, None])  # (N, n_cuts), each row sorted
        share = np.diff(pts, axis=1) / (hi - lo)[:, None]
        mid = 0.5 * (pts[:, :-1] + pts[:, 1:])
        dest = grid.state_index(mid, apply_thermostat(mid, T_set, on, deadband))
        src = np.broadcast_to(np.arange(N)[:, None] + N * on, dest.shape)
        np.add.at(P, (dest, src), share)
    tm = TransitionMatrix(P=P, grid=grid, dt_minutes=dt_minutes, T_set=T_set, T_amb=T_amb, deadband=deadband)
    tm.validate()
    return tm


@dataclass
class StationaryResult:
    """Outcome of the stationary-distribution solve."""

    x: np.ndarray
    residual: float  # ||A x - x||_inf
    iterations: int  # reachability passes spent finding the recurrent class


def reachable(P: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, int]:
    """States reachable from `start` along the nonzero pattern of the
    column-stochastic P (P[j, i] != 0 means i -> j), start included.

    `start` is a boolean mask of shape (n,), or (k, n) for k start sets at
    once.  Returns the closed mask(s) and the number of passes taken.
    """
    step = (P != 0.0).T.astype(float)
    inside = np.asarray(start, dtype=bool)
    passes = 0
    while True:
        passes += 1
        grown = inside | (inside.astype(float) @ step > 0.0)
        if np.array_equal(grown, inside):
            return inside, passes
        inside = grown


def _deadband_start(tm: TransitionMatrix) -> np.ndarray:
    """Both mode blocks of the bins meeting the deadband (boolean mask)."""
    grid = tm.grid
    centers = grid.centers
    lo = tm.T_set - 0.5 * tm.deadband
    hi = tm.T_set + 0.5 * tm.deadband
    inside = (centers >= lo - grid.delta_tau) & (centers <= hi + grid.delta_tau)
    return np.concatenate([inside, inside])


def stationary_distribution(tm: TransitionMatrix) -> StationaryResult:
    """The stationary distribution reached from the deadband bins.

    R is every state reachable from the deadband start; C, the states
    reachable from every state of R, is then the single closed
    communicating class inside R, and the stationary law is unique
    exactly when C is nonempty.  It solves [A_CC - I; 1^T] x = [0; 1] and
    is exactly zero off C.  A residual above 1e-10 raises
    NumericalFailureError.
    """
    A = tm.P
    n = A.shape[0]
    R, passes_r = reachable(A, _deadband_start(tm))
    rows = np.flatnonzero(R)
    from_each, passes_c = reachable(A, np.eye(n, dtype=bool)[rows])
    C = np.flatnonzero(from_each.all(axis=0))
    if C.size == 0:
        raise NumericalFailureError(
            "no unique stationary distribution: the states reachable from the deadband "
            "hold more than one closed class"
        )
    M = np.vstack([A[np.ix_(C, C)] - np.eye(C.size), np.ones((1, C.size))])
    rhs = np.zeros(C.size + 1)
    rhs[-1] = 1.0
    x_C = np.clip(np.linalg.lstsq(M, rhs, rcond=None)[0], 0.0, None)
    x = np.zeros(n)
    x[C] = x_C / x_C.sum()
    residual = float(np.abs(A @ x - x).max())
    if residual > 1e-10:
        raise NumericalFailureError(
            f"stationary solve residual {residual:.3e} > 1.0e-10 on {C.size} recurrent states"
        )
    return StationaryResult(x=x, residual=residual, iterations=passes_r + passes_c)


def output_vector(grid: BinGrid, P_on_total: float) -> np.ndarray:
    """Demand readout c, which maps a population vector to aggregate demand
    in kW: P_on_total on the on block, zero on the off block."""
    if P_on_total <= 0.0:
        raise InvalidInputError(f"P_on_total must be positive, got {P_on_total}")
    return np.where(grid.on_mask(), P_on_total, 0.0)


_MATRIX_HEADER = "# tclflex transition matrix v1"


def save_matrix(tm: TransitionMatrix, path) -> None:
    """Write the matrix and its operating point as CSV with # metadata lines.

    Floats are written with repr, which round-trips bit-exactly.
    """
    buf = io.StringIO()
    buf.write(_MATRIX_HEADER + "\n")
    for key, value in (
        ("dt_minutes", tm.dt_minutes),
        ("T_set", tm.T_set),
        ("T_amb", tm.T_amb),
        ("deadband", tm.deadband),
        ("T_min", tm.grid.T_min),
        ("T_max", tm.grid.T_max),
    ):
        buf.write(f"# {key}={value!r}\n")
    buf.write(f"# n_bins={tm.grid.n_bins}\n")
    for row in tm.P:
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_matrix(path) -> TransitionMatrix:
    """Read a matrix written by save_matrix and re-validate it.  A line
    that does not parse, rows of unequal length, a fractional n_bins, a
    non-finite field, or a step or deadband that is not positive raise
    InvalidInputError."""
    meta: dict[str, float] = {}
    rows: list[list[float]] = []
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != _MATRIX_HEADER:
            raise InvalidInputError(f"unrecognized matrix file header: {first!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    meta[key.strip()] = float(value)
                else:
                    rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise InvalidInputError(f"matrix file line {lineno} does not parse: {line!r}") from exc
            if rows and len(rows[-1]) != len(rows[0]):
                raise InvalidInputError(
                    f"matrix file line {lineno} holds {len(rows[-1])} entries, the first row {len(rows[0])}"
                )
    try:
        if not meta["n_bins"].is_integer():
            raise InvalidInputError(f"matrix file field n_bins must be an integer, got {meta['n_bins']!r}")
        for key in ("T_min", "T_max", "dt_minutes", "T_set", "T_amb", "deadband"):
            if not np.isfinite(meta[key]):
                raise InvalidInputError(f"matrix file field {key} must be finite, got {meta[key]!r}")
        for key in ("dt_minutes", "deadband"):
            if meta[key] <= 0.0:
                raise InvalidInputError(f"matrix file field {key} must be positive, got {meta[key]!r}")
        grid = BinGrid(T_min=meta["T_min"], T_max=meta["T_max"], n_bins=int(meta["n_bins"]))
        tm = TransitionMatrix(
            P=np.array(rows),
            grid=grid,
            dt_minutes=meta["dt_minutes"],
            T_set=meta["T_set"],
            T_amb=meta["T_amb"],
            deadband=meta["deadband"],
        )
    except KeyError as exc:
        raise InvalidInputError(f"matrix file missing metadata field {exc}") from exc
    tm.validate()
    return tm
