"""Cross-validation of the population model against unit-level simulation.

Population-level plans prescribe fractional control mass per bin; a real
fleet actuates whole units.  The bridge is an integer draw with a
per-bin error carry,

    U[k] = n_units * u[k]
    u_hat[k] = floor(U[k] + e[k]),   e[0] = 0
    e[k+1] = U[k] + e[k] - u_hat[k]

which keeps the cumulative actuated unit count within one unit per bin
of the continuous prescription.  The counts are then applied to an
agent-based fleet (uniform random unit selection inside each bin, each
unit switched at most once), which marks the run degraded when too few
units were eligible, and the resulting aggregate power is compared
against the bin model's prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .etp import FleetStepper
from .markov import BinGrid
from .reachhold import check_plan, write_json

SHORTFALL_WARN_FRACTION = 0.05
FLOOR_NUDGE = 1e-9  # absorbs float dust so exact integers floor cleanly


def discretize_plan(u: np.ndarray, n_units: int) -> np.ndarray:
    """Floor-with-carry conversion of a fractional plan u to unit counts:
    counts[k, i] units to switch out of state i at step k."""
    if n_units < 1:
        raise InvalidInputError(f"n_units must be >= 1, got {n_units}")
    U = np.clip(check_plan(u), 0.0, None) * n_units
    T, n_states = U.shape
    counts = np.zeros((T, n_states), dtype=int)
    e = np.zeros(n_states)
    for k in range(T):
        tot = U[k] + e
        c = np.floor(tot + FLOOR_NUDGE).astype(int)
        counts[k] = c
        e = tot - c
    return counts


@dataclass
class MicroRun:
    """Outcome of applying a discretized plan to an agent-based fleet."""

    power_kw: np.ndarray  # (horizon+1,)
    actuated: np.ndarray  # (n_units,) bool, final
    shortfall_events: list[dict]  # {"step", "state", "requested", "selected"}
    total_requested: int
    total_selected: int

    @property
    def degraded(self) -> bool:
        """More than SHORTFALL_WARN_FRACTION of the requested actuations went unmet."""
        if self.total_requested == 0:
            return False
        return 1.0 - self.total_selected / self.total_requested > SHORTFALL_WARN_FRACTION


def _state_pools(keys: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable sort order of the keys, and for each of `states` the
    start and size of its run there: order[start:start + size] are the
    ascending indices of the units with that key (np.flatnonzero(keys == i))."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    states = states.astype(keys.dtype)
    starts = np.searchsorted(sorted_keys, states, side="left")
    ends = np.searchsorted(sorted_keys, states, side="right")
    return order, starts, ends - starts


def _choice_positions(rng: np.random.Generator, pools: list[tuple[int, int, int]]) -> list[int]:
    """start + p for each p that rng.choice(n, size=k, replace=False)
    picks, for every pool (start, n, k) in turn, 1 <= k <= n, from the
    same draws and leaving rng in the same state.

    choice runs Floyd's algorithm (Bentley & Floyd, "A sample of
    brilliance", CACM 30(9), 1987): for j = n-k .. n-1 it draws v in
    [0, j] and picks v, or j when v is already picked; then it shuffles
    the k picks with draws in [0, i] for i = k-1 .. 1.  Both draw through
    the bounded-integer routine of rng.integers, so one integers call
    over the exclusive highs n-k+1 .. n, then k .. 2, of each pool draws
    the same numbers.  The shuffle only orders the picks, which the
    caller ignores.  A pool past choice's tail-shuffle threshold (n >
    10 000 and k > n // 50) calls choice itself, at its place in turn.
    """
    positions: list[int] = []
    floyd: list[tuple[int, int, int]] = []
    for start, n, k in pools:
        if n > 10_000 and k > n // 50:
            _floyd_positions(rng, floyd, positions)
            floyd = []
            positions += (start + rng.choice(n, size=k, replace=False)).tolist()
        else:
            floyd.append((start, n, k))
    _floyd_positions(rng, floyd, positions)
    return positions


def _floyd_positions(rng: np.random.Generator, pools: list[tuple[int, int, int]], positions: list[int]) -> None:
    """Append to positions the Floyd picks of every pool (start, n, k),
    from one rng.integers call (see _choice_positions)."""
    if not pools:
        return
    highs: list[int] = []
    for _, n, k in pools:
        highs += range(n - k + 1, n + 1)
        highs += range(k, 1, -1)
    draws = rng.integers(0, highs).tolist()
    at = 0
    for start, n, k in pools:
        picks = draws[at : at + k]
        if len(set(picks)) < k:  # a draw repeats an earlier pick: Floyd picks j instead
            picks = set()
            for j, v in zip(range(n - k, n), draws[at : at + k]):
                picks.add(j if v in picks else v)
        positions += [start + p for p in picks]
        at += 2 * k - 1


def apply_plan_micro(
    stepper: FleetStepper,
    counts: np.ndarray,
    grid: BinGrid,
    T_set_new: float,
    horizon: int | None = None,
    seed: int = 0,
) -> MicroRun:
    """Run the stepper's fleet forward, switching counts[k, i]
    not-yet-actuated units out of state i at each step k (uniform random
    within the bin, deterministic in the seed).  counts is a nonnegative
    integer (T, n_states) array that actuates at most the fleet's units.
    The fleet is advanced in place.  If a bin holds fewer eligible units
    than requested, all of them are taken and the shortfall is logged.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or not np.issubdtype(counts.dtype, np.integer):
        raise InvalidInputError("counts must be a 2-D integer array")
    if np.any(counts < 0):
        raise InvalidInputError("counts must be nonnegative")
    T = counts.shape[0]
    K = T if horizon is None else int(horizon)
    if K < T:
        raise InvalidInputError(f"horizon {K} shorter than the plan ({T} steps)")
    if counts.shape[1] != grid.n_states:
        raise InvalidInputError(f"plan has {counts.shape[1]} states but the grid has {grid.n_states}")
    fleet = stepper.fleet
    requested = int(counts.sum())
    if requested > fleet.n_units:
        raise InvalidInputError(f"plan actuates {requested} units but the fleet has {fleet.n_units}")
    rng = np.random.default_rng(seed)
    actuated = np.zeros(fleet.n_units, dtype=bool)
    power = np.empty(K + 1)
    power[0] = stepper.power_kw()
    shortfalls: list[dict] = []
    selected_total = 0
    # each selection step keys only the units not yet actuated, with
    # grid.state_index of their T_a and mode computed in one in-place
    # pass; keys stay below n_states, which fits 8 bits up to 128 bins
    # and makes the stable sort in _state_pools a radix sort
    n_bins = grid.n_bins
    key_type = np.min_scalar_type(grid.n_states - 1)
    for k in range(K):
        if k < T and counts[k].any():
            eligible = np.flatnonzero(~actuated)
            b = fleet.T_a[eligible]
            b -= grid.T_min
            b /= grid.delta_tau
            np.floor(b, out=b)
            np.maximum(b, 0, out=b)
            np.minimum(b, n_bins - 1, out=b)
            keys = b.astype(key_type)
            keys += np.multiply(fleet.on[eligible], n_bins, dtype=key_type)
            wanted = np.flatnonzero(counts[k])
            order, starts, sizes = _state_pools(keys, wanted)
            pools = []
            for i, start, size in zip(wanted.tolist(), starts.tolist(), sizes.tolist()):
                want = int(counts[k, i])
                take = min(want, size)
                if take < want:
                    shortfalls.append({"step": k, "state": i, "requested": want, "selected": take})
                if take > 0:
                    pools.append((start, size, take))
            # the same units, from the same draws, as one
            # rng.choice(pool, size=take, replace=False) per pool
            chosen = eligible[order[_choice_positions(rng, pools)]]
            fleet.T_set[chosen] = T_set_new
            actuated[chosen] = True
            selected_total += chosen.size
        stepper.advance()
        power[k + 1] = stepper.power_kw()
    return MicroRun(power, actuated, shortfalls, requested, selected_total)


def burn_in(stepper: FleetStepper, steps: int) -> float:
    """Advance the stepper's fleet to statistical steady state and return
    the mean aggregate power over the second half of the steps, which
    serves as the micro-side nominal demand estimate."""
    if steps < 1:
        raise InvalidInputError(f"steps must be >= 1, got {steps}")
    half = max(1, steps // 2)
    for _ in range(steps - half):  # power is read only over the half averaged
        stepper.advance()
    power = np.empty(half)
    for k in range(half):
        stepper.advance()
        power[k] = stepper.power_kw()
    return float(power.mean())


def compare_traces(
    markov_kw: np.ndarray,
    micro_kw: np.ndarray,
    p_on_total: float,
    P_hold_kw: float | None = None,
    T_hold_steps: int | None = None,
    baseline_kw: float | None = None,
    hold_tol_kw: float | None = None,
) -> dict:
    """Agreement metrics on two equal-length power traces: the dict of
    rmse and max_abs_dev, both normalized by the connected power
    p_on_total, hold_satisfied_fraction and p_on_total_kw.

    When a hold target (P_hold_kw, T_hold_steps) is given, the fraction
    of hold steps whose micro demand reduction baseline_kw - micro_kw[k]
    stays within hold_tol_kw of the target is reported; otherwise None.
    """
    markov_kw = np.asarray(markov_kw, dtype=float)
    micro_kw = np.asarray(micro_kw, dtype=float)
    if markov_kw.shape != micro_kw.shape or markov_kw.ndim != 1:
        raise InvalidInputError(f"traces must be equal-length 1-D arrays, got {markov_kw.shape} and {micro_kw.shape}")
    if p_on_total <= 0.0:
        raise InvalidInputError(f"p_on_total must be positive, got {p_on_total}")
    dev = markov_kw - micro_kw
    fraction = None
    if P_hold_kw is not None:
        if T_hold_steps is None or baseline_kw is None or hold_tol_kw is None:
            raise InvalidInputError("hold checks need T_hold_steps, baseline_kw and hold_tol_kw")
        if not 1 <= T_hold_steps < micro_kw.size:
            raise InvalidInputError(f"T_hold_steps {T_hold_steps} outside the trace (len {micro_kw.size})")
        reduction = baseline_kw - micro_kw[1 : T_hold_steps + 1]
        fraction = float(np.mean(reduction >= P_hold_kw - hold_tol_kw))
    return {
        "rmse": float(np.sqrt(np.mean(dev**2)) / p_on_total),
        "max_abs_dev": float(np.max(np.abs(dev)) / p_on_total),
        "hold_satisfied_fraction": fraction,
        "p_on_total_kw": float(p_on_total),
    }


def save_validation_report(report: dict, markov_kw: np.ndarray, micro_kw: np.ndarray, json_path, csv_path) -> None:
    """Persist the report dict as JSON and the paired traces as CSV."""
    write_json(report, json_path)
    markov_kw = np.asarray(markov_kw, dtype=float)
    micro_kw = np.asarray(micro_kw, dtype=float)
    if markov_kw.shape != micro_kw.shape:
        raise InvalidInputError("paired traces must have equal length")
    with open(str(csv_path), "w") as fh:
        fh.write("step,markov_kW,micro_kW\n")
        for k in range(markov_kw.size):
            fh.write(f"{k},{float(markov_kw[k])!r},{float(micro_kw[k])!r}\n")
