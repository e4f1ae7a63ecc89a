"""Monte-Carlo reference for the bin model's transition matrix.

This is the estimator the library used before the matrix was computed in
closed form: each column draws air temperatures uniformly inside its bin,
sets the mass node to T_a + Q_m/H_m, takes one exact ETP step in the
bin's mode (the maps of `etp.step_maps`), applies the thermostat and
counts destination states.  Tests use it as an independent oracle for
the binning of `estimate_transition_matrix`.
"""

from dataclasses import asdict

import numpy as np

from tclflex.etp import apply_thermostat, step_maps


def monte_carlo_matrix(params, grid, T_set, deadband, T_amb, dt_minutes=1.0, n_samples=4000, seed=0):
    N = grid.n_bins
    edges = grid.edges
    T_m_offset = params.Q_m / params.H_m
    seeds = np.random.SeedSequence(seed).spawn(2 * N)
    P = np.zeros((2 * N, 2 * N))
    (a00, a01, _, _), b_d = step_maps(asdict(params), T_amb, dt_minutes)
    for i in range(2 * N):
        on = i >= N
        b = i % N
        rng = np.random.default_rng(seeds[i])
        T_a = rng.uniform(edges[b], edges[b + 1], size=n_samples)
        T_a_next = a00 * T_a + a01 * (T_a + T_m_offset) + b_d[on][0]
        on_next = apply_thermostat(T_a_next, T_set, np.full(n_samples, on), deadband)
        dest = grid.state_index(T_a_next, on_next)
        P[:, i] = np.bincount(dest, minlength=2 * N) / n_samples
    return P
