"""Dense reference for the constraint matrices of the exact and outer LPs.

These are dense constructions of the LPs the library builds column-wise
(the exact LP in its per-step layout): a (rows, columns) array with
every zero written out.
Converted by `ColumnMatrix.from_dense`, which drops zeros (-0.0 too) and
lists each column's rows in ascending order, as the library's former
HiGHS hand-off did, they are the oracle for the sparse builders: the
`start`/`index`/`value` arrays must agree bit for bit.
"""

import numpy as np

from tclflex.reachhold import invariant_support


def dense_hold_block(d, T, steps, states):
    """The (T, len(steps)) hold block of the variables v[steps[i]][states[i]]:
    row k-1 holds -d[k - steps[i]][states[i]] for k > steps[i], else 0."""
    lag = np.arange(1, T + 1)[:, None] - steps[None, :]  # k - m
    return np.where(lag > 0, -d[np.maximum(lag, 0), states[None, :]], 0.0)


def dense_exact_matrix(T, fleet, x_0, A):
    """G of the exact LP on the invariant support: columns P, the variable
    fixed at 1, then the unactuated mass w[0..T-1]; rows per step k =
    1..T, hold row k and then the admissibility rows of w[k-1]."""
    cols = invariant_support(A, x_0)
    S = cols.size
    n_w = T * S
    A_S = A.P[np.ix_(cols, cols)]
    x_S = x_0[cols]
    d = fleet.h[:, cols] - fleet.h_a[:, cols]
    e = d.copy()
    e[2:] -= d[1:-1] @ A_S
    G = np.zeros((T + n_w, n_w + 2))
    hold = (S + 1) * np.arange(T)
    G[hold, 2:] = dense_hold_block(-e, T, np.repeat(np.arange(T), S), np.tile(np.arange(S), T))
    G[hold, 0] = 1.0
    G[hold, 1] = -(d[1:] @ x_S)[:T]
    for k in range(T):
        adm = hold[k] + 1 + np.arange(S)  # the rows of w[k]
        G[adm, 2 + k * S + np.arange(S)] = 1.0
        if k == 0:
            G[adm, 1] = -x_S
        else:
            G[np.ix_(adm, 2 + (k - 1) * S + np.arange(S))] = -A_S
    return G


def dense_outer_matrix(d, T, steps, states):
    """G of an outer master over P, then the columns v[steps[i]][states[i]]."""
    K = steps.size
    G = np.zeros((T + 1, K + 1))
    G[:T, 0] = 1.0
    G[:T, 1:] = dense_hold_block(d, T, steps, states)
    G[T, 1:] = 1.0  # total budget <= 1
    return G
