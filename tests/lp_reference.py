"""Dense reference for the constraint matrices of the exact and outer LPs.

These are the dense constructions the library used before it built its
LPs column-wise: a (rows, columns) array with every zero written out.
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
    """G of the exact LP over the unactuated mass w on the invariant
    support, then P, then the variable fixed at 1."""
    cols = invariant_support(A, x_0)
    S = cols.size
    n_w = T * S
    A_S = A.P[np.ix_(cols, cols)]
    x_S = x_0[cols]
    d = fleet.h[: T + 1, cols] - fleet.h_a[: T + 1, cols]
    e = d.copy()
    e[2:] -= d[1:T] @ A_S
    G = np.zeros((T + n_w, n_w + 2))
    G[:T, :n_w] = dense_hold_block(-e, T, np.repeat(np.arange(T), S), np.tile(np.arange(S), T))
    G[:T, n_w] = 1.0
    G[:T, n_w + 1] = -(d[1:] @ x_S)
    diag = np.arange(n_w)
    G[T + diag, diag] = 1.0
    G[T : T + S, n_w + 1] = -x_S
    for k in range(1, T):
        G[T + k * S : T + (k + 1) * S, (k - 1) * S : k * S] = -A_S
    return G


def dense_outer_matrix(d, T, steps, states):
    """G of an outer master over P, then the columns v[steps[i]][states[i]]."""
    K = steps.size
    G = np.zeros((T + 1, K + 1))
    G[:T, 0] = 1.0
    G[:T, 1:] = dense_hold_block(d, T, steps, states)
    G[T, 1:] = 1.0  # total budget <= 1
    return G
