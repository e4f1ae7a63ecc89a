"""Per-target reference for the inner frontier's greedy allocation.

This is the construction the library used before it ran the recursion
once per fleet and scaled it: for each target it walks the steps, sets
alpha[k] to the larger of zero and the lower bound that keeps
dP[k+1] >= P_hold given the committed prefix, stops when the unit budget
runs out, and scans the plan's own reduction for the first violation.
Tests use it as an independent oracle for `inner_point` and `inner_p_at`.
"""

import numpy as np


def reference_inner_point(P_hold, fleet):
    """(alpha, depletion step or None, T_hold, horizon_limited) for P_hold
    on `fleet`, over its T_max steps."""
    x_0, T_max = fleet.x_0, fleet.T_max
    p_nom = float(fleet.h[0] @ x_0)
    P_hold = float(np.clip(P_hold, 0.0, p_nom))
    rec = fleet.h_a[1:] @ x_0  # c A_a^m x_0, m = 1..horizon
    r = P_hold / p_nom
    gain = 1.0 - float(rec[0]) / p_nom
    alpha = np.zeros(T_max)
    depletion = None
    committed = 0.0
    for k in range(T_max):
        lb = r if k == 0 else r - committed + float(alpha[:k] @ rec[k:0:-1]) / p_nom
        if gain <= 0.0:
            a = np.inf if lb > 0.0 else 0.0
        else:
            a = max(lb / gain, 0.0)
        if committed + a >= 1.0:
            alpha[k] = 1.0 - committed
            depletion = k
            break
        alpha[k] = a
        committed += a
    s = (fleet.h[1:] - fleet.h_a[1:]) @ x_0
    dp = np.concatenate([[0.0], np.convolve(alpha, s)[: s.size]])
    hold_tol = 1e-10 * max(1.0, fleet.regime["P_on_total_kw"])
    for k in range(1, T_max + 1):
        if dp[k] < P_hold - hold_tol:
            return alpha, depletion, k - 1, False
    return alpha, depletion, T_max, True


def reference_p_at(T_hold, fleet):
    """Largest target whose reference hold reaches T_hold, by bisection
    to 1e-9 of P_nom."""
    p_nom = float(fleet.h[0] @ fleet.x_0)
    holds = lambda P: reference_inner_point(P, fleet)[2] >= T_hold
    if holds(p_nom):
        return p_nom
    lo, hi = 0.0, p_nom
    while hi - lo > 1e-9 * p_nom:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo
