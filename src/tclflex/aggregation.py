"""Combining reach-and-hold sets of several fleets.

Two fleets with individual boundaries can be scheduled three ways:
exclusively (actuate one, whichever is better at the target duration),
simultaneously (both at once: reductions add, the hold lasts as long as
the shorter component), or consecutively (one after the other: holds
add at any reduction both can sustain).  The overall capability is the
pointwise upper envelope of the three.

All frontier queries use conservative step interpolation, never linear,
so every combined point inherits feasibility from component points.
Every frontier here is a pair of arrays (T_hold_steps, P_hold_kw), as a
`ReachHoldSet` holds it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .reachhold import ReachHoldSet, _sidecar_path, prune_to_frontier, write_json

EXCLUSIVE = "exclusive"
SIMULTANEOUS = "simultaneous"
CONSECUTIVE = "consecutive"
UNION = "union"
MODES = (EXCLUSIVE, SIMULTANEOUS, CONSECUTIVE, UNION)


def _step_lookup(rh_set: ReachHoldSet, query: np.ndarray, by_hold: bool) -> np.ndarray:
    """The frontier's step function at each query, by binary search over its
    holds and best, the suffix maximum of P: at holds t, the largest P held
    t steps or more; at reductions p, the last hold whose best is p or more; else 0."""
    T = rh_set.T_hold_steps
    best = np.maximum.accumulate(rh_set.P_hold_kw[::-1])[::-1]
    if by_hold:
        return np.append(best, 0.0)[np.searchsorted(T, query)]
    return np.append(0, T)[np.searchsorted(-best, -query, side="right")]


def query_p_at_t(rh_set: ReachHoldSet, t: int) -> float:
    """Largest boundary reduction sustainable for at least t steps; 0 when
    t lies beyond the frontier."""
    if t < 0:
        raise InvalidInputError(f"t must be >= 0, got {t}")
    return float(_step_lookup(rh_set, np.array([t]), by_hold=True)[0])


def query_t_at_p(rh_set: ReachHoldSet, p: float) -> int:
    """Longest boundary hold at a reduction of at least p kW; 0 when p
    exceeds the frontier."""
    if not p >= 0.0:  # NaN too, which the binary search would rank last
        raise InvalidInputError(f"p must be >= 0, got {p}")
    return int(_step_lookup(rh_set, np.array([p], dtype=float), by_hold=False)[0])


def _frontier(T: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frontier of the samples (T[i], P[i]), as arrays."""
    keep = prune_to_frontier(T, P)
    return T[keep], P[keep]


def combine(set1: ReachHoldSet, set2: ReachHoldSet) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """All three pairwise scheduling modes plus their upper envelope, keyed
    by MODES; each frontier is a pair of arrays (T_hold_steps, P_hold_kw),
    and `union`, the envelope of the other three, is the overall capability
    when the scheduler may pick any of the modes.

    The components must share the step length and the method class, so
    the combined frontier keeps a single feasibility guarantee.
    """
    if set1.regime.get("dt_minutes") != set2.regime.get("dt_minutes"):
        raise InvalidInputError(
            f"step mismatch: {set1.regime.get('dt_minutes')} vs {set2.regime.get('dt_minutes')} minutes"
        )
    if set1.method != set2.method:
        raise InvalidInputError(f"method mismatch: {set1.method} vs {set2.method}")
    # both sets' holds and reductions; a repeat gives a repeated sample,
    # which pruning keeps once
    t_grid = np.concatenate([set1.T_hold_steps, set2.T_hold_steps])
    p_grid = np.concatenate([set1.P_hold_kw, set2.P_hold_kw])
    p1, p2 = (_step_lookup(s, t_grid, by_hold=True) for s in (set1, set2))
    t1, t2 = (_step_lookup(s, p_grid, by_hold=False) for s in (set1, set2))
    frontiers = {
        EXCLUSIVE: _frontier(t_grid, np.maximum(p1, p2)),
        SIMULTANEOUS: _frontier(t_grid, p1 + p2),
        CONSECUTIVE: _frontier(t1 + t2, p_grid),
    }
    holds, reductions = zip(*frontiers.values())
    frontiers[UNION] = _frontier(np.concatenate(holds), np.concatenate(reductions))
    return frontiers


def combined_set(set1: ReachHoldSet, set2: ReachHoldSet, mode: str) -> ReachHoldSet:
    """One frontier of combine(set1, set2) as a standalone set; see _as_combined_set."""
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    return _as_combined_set(set1, set2, mode, combine(set1, set2)[mode])


def _as_combined_set(set1: ReachHoldSet, set2: ReachHoldSet, mode: str, frontier: tuple) -> ReachHoldSet:
    """The mode's frontier of combine(set1, set2) as a set (used when
    folding more than two fleets) whose regime sums the components'
    P_on_total_kw and P_nom_kw where both record them.
    Reductions are then clipped to the summed P_nom_kw: each component
    passed its own P_nom check, so any excess is only the components'
    summed rounding tolerance."""
    regime = {"dt_minutes": float(set1.regime.get("dt_minutes", 1.0)), "combined_mode": mode}
    for key in ("P_on_total_kw", "P_nom_kw"):
        vals = [s.regime.get(key) for s in (set1, set2)]
        if all(v is not None for v in vals):
            regime[key] = float(sum(vals))
    T, P = frontier
    if "P_nom_kw" in regime:
        T, P = _frontier(T, np.minimum(P, regime["P_nom_kw"]))
    return ReachHoldSet(T, P, set1.method, regime)


def combine_many(sets: list[ReachHoldSet]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Left-fold of combined_set over more than two fleets, carrying the
    union frontier between stages; returns the last stage's frontiers by
    mode, an inner bound of the true joint set since mixed schedules across
    stages are not enumerated.  Each stage runs one combine."""
    if len(sets) < 2:
        raise InvalidInputError(f"need at least two sets, got {len(sets)}")
    folded = sets[0]
    for s in sets[1:-1]:
        folded = combined_set(folded, s, UNION)
    last = {mode: _as_combined_set(folded, sets[-1], mode, f) for mode, f in combine(folded, sets[-1]).items()}
    return {mode: (rh.T_hold_steps, rh.P_hold_kw) for mode, rh in last.items()}


def save_combined(
    set1: ReachHoldSet, set2: ReachHoldSet, frontiers: dict[str, tuple[np.ndarray, np.ndarray]], csv_path
) -> None:
    """One CSV with a mode column covering the four frontiers of
    combine(set1, set2), plus a JSON sidecar recording the component
    regimes."""
    csv_path = str(csv_path)
    dt = float(set1.regime.get("dt_minutes", 1.0))
    with open(csv_path, "w") as fh:
        fh.write("T_hold_steps,T_hold_hours,P_hold_kW,mode\n")
        for mode in MODES:
            T, P = frontiers[mode]
            for t, p in zip(T.tolist(), P.tolist()):
                fh.write(f"{t},{t * dt / 60.0!r},{p!r},{mode}\n")
    sidecar = {
        "method": set1.method,
        "dt_minutes": dt,
        "component_regimes": [set1.regime, set2.regime],
        "modes": list(MODES),
    }
    write_json(sidecar, _sidecar_path(csv_path))
