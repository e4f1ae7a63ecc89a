"""Lifted reference for the exact LP.

This is the formulation the library used before it eliminated the plan
variables: u[0..T-1] and w[0..T-1] on the invariant support S, then P,
where w[k] = x[k] - u[k] >= 0 is the mass left unactuated after step k,
with the equalities u[0] + w[0] = x_0[S] and u[k] + w[k] - A_S w[k-1] = 0
and the hold rows over u.  Tests use it as an oracle for `solve_exact`.
The library's LP layer poses no equality rows, so this one is solved by
scipy's `linprog(method="highs")` rather than by the code under test.
"""

import numpy as np

from tclflex.reachhold import invariant_support

from lp_reference import dense_hold_block


def reference_exact(T, fleet, x_0, A):
    """(P, u) of the lifted exact LP at hold T; u is (T, n_states)."""
    from scipy.optimize import linprog

    n = x_0.size
    cols = invariant_support(A, x_0)
    S = cols.size
    n_u = T * S
    n_vars = 2 * n_u + 1
    c_obj = np.zeros(n_vars)
    c_obj[-1] = 1.0
    G = np.zeros((T, n_vars))
    G[:, :n_u] = dense_hold_block(fleet.h - fleet.h_a, T, np.repeat(np.arange(T), S), np.tile(cols, T))
    G[:, -1] = 1.0
    E = np.zeros((n_u, n_vars))
    diag = np.arange(n_u)
    E[diag, diag] = 1.0
    E[diag, n_u + diag] = 1.0
    A_S = A.P[np.ix_(cols, cols)]
    for k in range(1, T):
        E[k * S : (k + 1) * S, n_u + (k - 1) * S : n_u + k * S] = -A_S
    f = np.zeros(n_u)
    f[:S] = x_0[cols]
    res = linprog(-c_obj, A_ub=G, b_ub=np.zeros(T), A_eq=E, b_eq=f, bounds=(0.0, None), method="highs")
    assert res.status == 0, res.message
    u = np.zeros((T, n))
    u[:, cols] = res.x[:n_u].reshape(T, S)
    return float(res.x[-1]), np.clip(u, 0.0, None)
