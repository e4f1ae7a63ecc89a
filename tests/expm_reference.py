"""Matrix-exponential reference for the thermal model's one-step maps.

This is the integrator the library used before the maps were computed in
closed form: the exponential of each mode's augmented 3x3 system
[[F, g], [0, 0]], whose upper blocks are A_d and b_d.  Tests use it as an
oracle for `etp.step_maps` and `FleetStepper`, and, patched in for
`step_maps`, to rebuild bin models exactly as that integrator made them.
"""

import numpy as np
from scipy.linalg import expm


def expm_maps(params, T_amb, dt_minutes):
    """A_d (2, ..., 2, 2) and b_d (2, ..., 2) of each mode, index 0
    compressor off and 1 on; `params` maps the TclParams field names to
    scalars or per-unit arrays."""
    C_a, C_m, U_a, H_m = (np.asarray(params[k], dtype=float) for k in ("C_a", "C_m", "U_a", "H_m"))
    M = np.zeros((2,) + np.broadcast(C_a, C_m, U_a, H_m).shape + (3, 3))
    for mode, q_a in enumerate((params["Q_a_off"], params["Q_a_on"])):
        M[mode, ..., 0, 0] = -(U_a + H_m) / C_a
        M[mode, ..., 0, 1] = H_m / C_a
        M[mode, ..., 1, 0] = H_m / C_m
        M[mode, ..., 1, 1] = -H_m / C_m
        M[mode, ..., 0, 2] = (U_a * T_amb + q_a) / C_a
        M[mode, ..., 1, 2] = params["Q_m"] / C_m
    E = expm(M * (dt_minutes / 60.0))
    return E[..., :2, :2], E[..., :2, 2]


def expm_step_maps(params, T_amb, dt_minutes):
    """`expm_maps` in the layout of `etp.step_maps`, with A_d taken from
    the off mode (both modes' A_d agree bit for bit at the defaults)."""
    A_d, b_d = expm_maps(params, T_amb, dt_minutes)
    return (
        (A_d[0, ..., 0, 0], A_d[0, ..., 0, 1], A_d[0, ..., 1, 0], A_d[0, ..., 1, 1]),
        tuple((b_d[mode, ..., 0], b_d[mode, ..., 1]) for mode in (0, 1)),
    )
