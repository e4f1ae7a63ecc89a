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

import json
from dataclasses import dataclass

from .errors import InvalidInputError
from .reachhold import ReachHoldPoint, ReachHoldSet, prune_to_frontier

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


@dataclass
class CombinedSet:
    """Pairwise combination of two reach-and-hold sets.

    Each frontier is a list of (T_hold, P_hold) boundary points; `union`
    is the upper envelope of the other three and represents the overall
    capability when the scheduler may pick any of the modes.
    """

    components: tuple[ReachHoldSet, ReachHoldSet]
    exclusive: list[ReachHoldPoint]
    simultaneous: list[ReachHoldPoint]
    consecutive: list[ReachHoldPoint]
    union: list[ReachHoldPoint]
    dt_minutes: float
    method: str

    def frontier(self, mode: str) -> list[ReachHoldPoint]:
        if mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
        return getattr(self, mode)

    def to_reach_hold_set(self, mode: str) -> ReachHoldSet:
        """Re-package one frontier as a standalone set (used when folding
        more than two fleets; the result is an inner bound of the true
        multi-fleet capability)."""
        regime = {"dt_minutes": self.dt_minutes, "combined_mode": mode}
        for key in ("P_on_total_kw", "P_nom_kw"):
            vals = [s.regime.get(key) for s in self.components]
            if all(v is not None for v in vals):
                regime[key] = float(sum(vals))
        return ReachHoldSet(
            points=list(self.frontier(mode)), method=self.method, regime=regime
        )


def combine(set1: ReachHoldSet, set2: ReachHoldSet) -> CombinedSet:
    """All three pairwise scheduling modes plus their upper envelope.

    The components must share the step length and the method class, so
    the combined frontier keeps a single feasibility guarantee.
    """
    if set1.regime.get("dt_minutes") != set2.regime.get("dt_minutes"):
        raise InvalidInputError(
            f"step mismatch: {set1.regime.get('dt_minutes')} vs {set2.regime.get('dt_minutes')} minutes"
        )
    if set1.method != set2.method:
        raise InvalidInputError(f"method mismatch: {set1.method} vs {set2.method}")
    dt = float(set1.regime.get("dt_minutes", 1.0))
    method = set1.method
    t_grid = sorted({p.T_hold_steps for s in (set1, set2) for p in s.points})
    p_grid = sorted({p.P_hold_kw for s in (set1, set2) for p in s.points})

    def as_frontier(pairs) -> list[ReachHoldPoint]:
        return prune_to_frontier(
            [ReachHoldPoint(P_hold_kw=p, T_hold_steps=t, method=method) for t, p in pairs]
        )

    exclusive = as_frontier((t, max(query_p_at_t(set1, t), query_p_at_t(set2, t))) for t in t_grid)
    simultaneous = as_frontier((t, query_p_at_t(set1, t) + query_p_at_t(set2, t)) for t in t_grid)
    consecutive = as_frontier((query_t_at_p(set1, p) + query_t_at_p(set2, p), p) for p in p_grid)
    union = prune_to_frontier(exclusive + simultaneous + consecutive)
    return CombinedSet(
        components=(set1, set2),
        exclusive=exclusive,
        simultaneous=simultaneous,
        consecutive=consecutive,
        union=union,
        dt_minutes=dt,
        method=method,
    )


def combine_many(sets: list[ReachHoldSet]) -> CombinedSet:
    """Left-fold of combine over more than two fleets, carrying the union
    frontier between stages; an inner bound of the true joint set since
    mixed schedules across stages are not enumerated."""
    if len(sets) < 2:
        raise InvalidInputError(f"need at least two sets, got {len(sets)}")
    combined = combine(sets[0], sets[1])
    for s in sets[2:]:
        combined = combine(combined.to_reach_hold_set(UNION), s)
    return combined


def save_combined(combined: CombinedSet, csv_path) -> None:
    """One CSV with a mode column covering all four frontiers, plus a JSON
    sidecar recording the component regimes."""
    csv_path = str(csv_path)
    with open(csv_path, "w") as fh:
        fh.write("T_hold_steps,T_hold_hours,P_hold_kW,mode\n")
        for mode in MODES:
            for p in combined.frontier(mode):
                hours = p.T_hold_steps * combined.dt_minutes / 60.0
                fh.write(f"{p.T_hold_steps},{hours!r},{p.P_hold_kw!r},{mode}\n")
    sidecar = {
        "method": combined.method,
        "dt_minutes": combined.dt_minutes,
        "component_regimes": [s.regime for s in combined.components],
        "modes": list(MODES),
    }
    path = csv_path[: -len(".csv")] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"
    with open(path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
