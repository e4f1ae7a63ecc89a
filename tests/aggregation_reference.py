"""List-based reference for frontier pruning, the frontier queries and
`combine`.

This is how the library answered them before it searched sorted arrays:
pruning keeps a dict of the best sample per hold and walks the holds
longest first, and each query scans every hold of the set.  Tests use
it as an oracle that the array versions must match exactly.
"""

from tclflex.reachhold import FRONTIER_TIE_REL


def reference_prune(samples):
    """Indices of the frontier of samples [(T_hold, P_hold), ...], by
    ascending hold: the first sample of the largest P_hold per hold, then,
    longest hold first, only those that beat the longer holds kept by more
    than FRONTIER_TIE_REL.  Samples that hold for no step or reduce
    nothing are dropped."""
    best = {}
    for i, (t, p) in enumerate(samples):
        cur = best.get(t)
        if t >= 1 and p > 0.0 and (cur is None or p > samples[cur][1]):
            best[t] = i
    keep = []
    run_max = float("-inf")
    for t in sorted(best, reverse=True):  # longest holds first
        p = samples[best[t]][1]
        if not keep or p > run_max + FRONTIER_TIE_REL * max(1.0, run_max):
            keep.append(best[t])
            run_max = p
    keep.reverse()
    return keep


def pairs(rh_set):
    """The set's frontier as a list of (T_hold, P_hold) pairs."""
    return list(zip(rh_set.T_hold_steps.tolist(), rh_set.P_hold_kw.tolist()))


def reference_p_at_t(rh_set, t):
    """Largest P over the holds of at least t steps; 0 if none."""
    vals = [p for T, p in pairs(rh_set) if T >= t]
    return max(vals) if vals else 0.0


def reference_t_at_p(rh_set, p):
    """Longest hold over the reductions of at least p; 0 if none."""
    vals = [T for T, P in pairs(rh_set) if P >= p]
    return max(vals) if vals else 0


def reference_combine(set1, set2):
    """The four frontiers of `combine`, keyed by mode, as lists of
    (T_hold, P_hold) pairs, one query per grid value and set."""
    t_grid = sorted({T for s in (set1, set2) for T, _ in pairs(s)})
    p_grid = sorted({P for s in (set1, set2) for _, P in pairs(s)})

    def as_frontier(samples):
        samples = list(samples)
        return [samples[i] for i in reference_prune(samples)]

    p_at = lambda t: (reference_p_at_t(set1, t), reference_p_at_t(set2, t))
    exclusive = as_frontier((t, max(p_at(t))) for t in t_grid)
    simultaneous = as_frontier((t, sum(p_at(t))) for t in t_grid)
    consecutive = as_frontier((reference_t_at_p(set1, p) + reference_t_at_p(set2, p), p) for p in p_grid)
    union = as_frontier(exclusive + simultaneous + consecutive)
    return {"exclusive": exclusive, "simultaneous": simultaneous, "consecutive": consecutive, "union": union}
