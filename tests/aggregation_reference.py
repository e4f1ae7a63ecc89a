"""List-based reference for the frontier queries and `combine`.

This is how the library answered the queries before it searched sorted
arrays: each one scans every point of the set.  Tests use it as an
oracle that the searches and the combined frontiers must match exactly.
"""

from tclflex.reachhold import ReachHoldPoint, prune_to_frontier


def reference_p_at_t(rh_set, t):
    """Largest P over the points held for at least t steps; 0 if none."""
    vals = [p.P_hold_kw for p in rh_set.points if p.T_hold_steps >= t]
    return max(vals) if vals else 0.0


def reference_t_at_p(rh_set, p):
    """Longest hold over the points at a P of at least p; 0 if none."""
    vals = [pt.T_hold_steps for pt in rh_set.points if pt.P_hold_kw >= p]
    return max(vals) if vals else 0


def reference_combine(set1, set2):
    """The four frontiers of `combine`, keyed by mode, one query per grid
    value and set."""
    t_grid = sorted({p.T_hold_steps for s in (set1, set2) for p in s.points})
    p_grid = sorted({p.P_hold_kw for s in (set1, set2) for p in s.points})

    def as_frontier(pairs):
        return prune_to_frontier([ReachHoldPoint(P_hold_kw=p, T_hold_steps=t) for t, p in pairs])

    p_at = lambda t: (reference_p_at_t(set1, t), reference_p_at_t(set2, t))
    exclusive = as_frontier((t, max(p_at(t))) for t in t_grid)
    simultaneous = as_frontier((t, sum(p_at(t))) for t in t_grid)
    consecutive = as_frontier((reference_t_at_p(set1, p) + reference_t_at_p(set2, p), p) for p in p_grid)
    union = prune_to_frontier(exclusive + simultaneous + consecutive)
    return {"exclusive": exclusive, "simultaneous": simultaneous, "consecutive": consecutive, "union": union}
