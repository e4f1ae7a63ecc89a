"""Shared fixtures: default-regime matrices are built once per session."""

import pytest

from tclflex.etp import DEFAULT_PARAMS
from tclflex.markov import (
    build_grid,
    estimate_transition_matrix,
    output_vector,
    stationary_distribution,
)
from tclflex.reachhold import OperatingPoint, characterize

T_AMB = 32.0
T_SET = 20.0
T_SET_NEW = 22.0
DEADBAND = 1.0
P_ON_TOTAL = 3500.0  # 1000 units at the nominal 3.5 kW rating


@pytest.fixture(scope="session")
def grid40():
    return build_grid(18.0, 24.0, 40)


@pytest.fixture(scope="session")
def tm_nominal(grid40):
    return estimate_transition_matrix(
        DEFAULT_PARAMS, grid40, T_SET, DEADBAND, T_AMB, dt_minutes=1.0
    )


@pytest.fixture(scope="session")
def tm_actuated(grid40):
    return estimate_transition_matrix(
        DEFAULT_PARAMS, grid40, T_SET_NEW, DEADBAND, T_AMB, dt_minutes=1.0
    )


@pytest.fixture(scope="session")
def x0_nominal(tm_nominal):
    return stationary_distribution(tm_nominal)


@pytest.fixture(scope="session")
def c_out(grid40):
    return output_vector(grid40, P_ON_TOTAL)


@pytest.fixture(scope="session")
def char10():
    grid = build_grid(18.0, 24.0, 10)
    return characterize(
        OperatingPoint(DEFAULT_PARAMS, grid, T_SET, T_SET_NEW, DEADBAND, T_AMB, P_ON_TOTAL),
        T_max=60,
    )
