"""Combining reach-and-hold sets of several fleets.

Two fleets with individual boundaries can be scheduled three ways:
exclusively (actuate one, whichever is better at the target duration),
simultaneously (both at once: reductions add, the hold lasts as long as
the shorter component), or consecutively (one after the other: holds
add at any reduction both can sustain).  The overall capability is the
pointwise upper envelope of the three.

All frontier queries use conservative step interpolation, never linear,
so every combined point inherits feasibility from component points.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .reachhold import ReachHoldPoint, ReachHoldSet, _sidecar_path, prune_to_frontier, write_json

EXCLUSIVE = "exclusive"
SIMULTANEOUS = "simultaneous"
CONSECUTIVE = "consecutive"
UNION = "union"
MODES = (EXCLUSIVE, SIMULTANEOUS, CONSECUTIVE, UNION)


def query_p_at_t(rh_set: ReachHoldSet, t: int) -> float:
    """Largest boundary reduction sustainable for at least t steps; 0 when
    t lies beyond the frontier."""
    if t < 0:
        raise InvalidInputError(f"t must be >= 0, got {t}")
    vals = [p.P_hold_kw for p in rh_set.points if p.T_hold_steps >= t]
    return max(vals) if vals else 0.0


def query_t_at_p(rh_set: ReachHoldSet, p: float) -> int:
    """Longest boundary hold at a reduction of at least p kW; 0 when p
    exceeds the frontier."""
    if p < 0.0:
        raise InvalidInputError(f"p must be >= 0, got {p}")
    vals = [pt.T_hold_steps for pt in rh_set.points if pt.P_hold_kw >= p]
    return max(vals) if vals else 0


def combine(set1: ReachHoldSet, set2: ReachHoldSet) -> dict[str, list[ReachHoldPoint]]:
    """All three pairwise scheduling modes plus their upper envelope, keyed
    by MODES; each frontier is a list of (T_hold, P_hold) boundary points,
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
    t_grid = sorted({p.T_hold_steps for s in (set1, set2) for p in s.points})
    p_grid = sorted({p.P_hold_kw for s in (set1, set2) for p in s.points})

    def as_frontier(pairs) -> list[ReachHoldPoint]:
        return prune_to_frontier([ReachHoldPoint(P_hold_kw=p, T_hold_steps=t) for t, p in pairs])

    exclusive = as_frontier((t, max(query_p_at_t(set1, t), query_p_at_t(set2, t))) for t in t_grid)
    simultaneous = as_frontier((t, query_p_at_t(set1, t) + query_p_at_t(set2, t)) for t in t_grid)
    consecutive = as_frontier((query_t_at_p(set1, p) + query_t_at_p(set2, p), p) for p in p_grid)
    union = prune_to_frontier(exclusive + simultaneous + consecutive)
    return {EXCLUSIVE: exclusive, SIMULTANEOUS: simultaneous, CONSECUTIVE: consecutive, UNION: union}


def combined_set(set1: ReachHoldSet, set2: ReachHoldSet, mode: str) -> ReachHoldSet:
    """One frontier of combine(set1, set2) as a standalone set, whose regime
    sums the components' P_on_total_kw and P_nom_kw where both record them
    (used when folding more than two fleets)."""
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    regime = {"dt_minutes": float(set1.regime.get("dt_minutes", 1.0)), "combined_mode": mode}
    for key in ("P_on_total_kw", "P_nom_kw"):
        vals = [s.regime.get(key) for s in (set1, set2)]
        if all(v is not None for v in vals):
            regime[key] = float(sum(vals))
    return ReachHoldSet(points=combine(set1, set2)[mode], method=set1.method, regime=regime)


def combine_many(sets: list[ReachHoldSet]) -> dict[str, list[ReachHoldPoint]]:
    """Left-fold of combine over more than two fleets, carrying the union
    frontier between stages; returns the last stage's frontiers, an inner
    bound of the true joint set since mixed schedules across stages are
    not enumerated."""
    if len(sets) < 2:
        raise InvalidInputError(f"need at least two sets, got {len(sets)}")
    folded = sets[0]
    for s in sets[1:-1]:
        folded = combined_set(folded, s, UNION)
    return combine(folded, sets[-1])


def save_combined(
    set1: ReachHoldSet, set2: ReachHoldSet, frontiers: dict[str, list[ReachHoldPoint]], csv_path
) -> None:
    """One CSV with a mode column covering the four frontiers of
    combine(set1, set2), plus a JSON sidecar recording the component
    regimes."""
    csv_path = str(csv_path)
    dt = float(set1.regime.get("dt_minutes", 1.0))
    with open(csv_path, "w") as fh:
        fh.write("T_hold_steps,T_hold_hours,P_hold_kW,mode\n")
        for mode in MODES:
            for p in frontiers[mode]:
                hours = p.T_hold_steps * dt / 60.0
                fh.write(f"{p.T_hold_steps},{hours!r},{p.P_hold_kw!r},{mode}\n")
    sidecar = {
        "method": set1.method,
        "dt_minutes": dt,
        "component_regimes": [set1.regime, set2.regime],
        "modes": list(MODES),
    }
    write_json(sidecar, _sidecar_path(csv_path))
