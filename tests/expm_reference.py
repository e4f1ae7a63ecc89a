"""Matrix-exponential reference for the thermal model's one-step map.

This is the integrator `etp.discretize` used before the map was computed
in closed form: the exponential of the augmented 3x3 system
[[F, g], [0, 0]], whose upper blocks are A_d and b_d.  Tests use it as an
oracle for `discretize`, and to rebuild bin models exactly as that
integrator made them.
"""

import numpy as np
from scipy.linalg import expm


def expm_discretize(params, T_amb, on, dt_minutes):
    M = np.zeros((3, 3))
    M[0, 0] = -(params.U_a + params.H_m) / params.C_a
    M[0, 1] = params.H_m / params.C_a
    M[1, 0] = params.H_m / params.C_m
    M[1, 1] = -params.H_m / params.C_m
    M[0, 2] = (params.U_a * T_amb + (params.Q_a_on if on else params.Q_a_off)) / params.C_a
    M[1, 2] = params.Q_m / params.C_m
    E = expm(M * (dt_minutes / 60.0))
    return E[:2, :2], E[:2, 2]
