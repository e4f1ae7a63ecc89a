"""Tests for the bin model: grids, the closed-form transition matrix
against a Monte-Carlo oracle, stationary distributions, the readout,
and serialization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tclflex.errors import (
    InvalidConfigurationError,
    InvalidInputError,
    NumericalFailureError,
)
from tclflex.etp import DEFAULT_PARAMS, FleetSpec, FleetStepper, sample_fleet, simulate_fleet
from tclflex.markov import (
    BinGrid,
    TransitionMatrix,
    estimate_transition_matrix,
    load_matrix,
    output_vector,
    reachable,
    save_matrix,
    stationary_distribution,
)

from conftest import DEADBAND, P_ON_TOTAL, T_AMB, T_SET, T_SET_NEW
from mc_reference import monte_carlo_matrix


class TestBinGrid:
    def test_grid_example(self):
        grid = BinGrid(19.0, 23.0, 8)
        assert grid.delta_tau == pytest.approx(0.5)
        assert grid.n_states == 16
        assert grid.edges[0] == 19.0 and grid.edges[-1] == 23.0

    def test_defaults_are_the_paper_grid(self):
        # the config's default grid, echoed in every effective_config.json
        assert BinGrid() == BinGrid(18.0, 24.0, 40)

    def test_interior_points_round_trip(self):
        grid = BinGrid(19.0, 23.0, 8)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            b = rng.integers(0, 8)
            eps = grid.delta_tau * rng.uniform(0.01, 0.99)
            T = grid.edges[b] + eps
            assert grid.temp_bin(T) == b
            assert grid.state_index(T, False) == b
            assert grid.state_index(T, True) == b + 8

    def test_out_of_range_clips_to_boundary_bins(self):
        grid = BinGrid(19.0, 23.0, 8)
        assert grid.temp_bin(10.0) == 0
        assert grid.temp_bin(40.0) == 7
        assert grid.temp_bin(23.0) == 7  # top edge belongs to the last bin

    def test_far_excursions_clip_before_the_int_cast(self):
        grid = BinGrid(18.0, 24.0, 40)
        assert grid.temp_bin([1e300, -1e300, 30.0, 10.0]).tolist() == [39, 0, 39, 0]

    @pytest.mark.parametrize("T", [np.inf, -np.inf, np.nan])
    def test_nonfinite_temperature_rejected(self, T):
        with pytest.raises(InvalidInputError, match="finite"):
            BinGrid(18.0, 24.0, 40).temp_bin([20.0, T])

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidInputError):
            BinGrid(23.0, 19.0, 8)
        with pytest.raises(InvalidInputError):
            BinGrid(19.0, 23.0, 0)


class TestEstimateTransitionMatrix:
    def test_columns_sum_to_one(self):
        # both matrices of the default regime, A and A_a, keep the fleet's
        # mass, which the population replay relies on at every step
        for n_bins in (10, 40, 160):
            for T_set in (T_SET, T_SET_NEW):
                tm = estimate_transition_matrix(DEFAULT_PARAMS, BinGrid(18.0, 24.0, n_bins), T_set, DEADBAND, T_AMB)
                assert np.all(np.abs(tm.P.sum(axis=0) - 1.0) <= 1e-12), (n_bins, T_set)
                assert np.all(tm.P >= 0.0)

    def test_deterministic(self, grid40, tm_nominal):
        again = estimate_transition_matrix(DEFAULT_PARAMS, grid40, T_SET, DEADBAND, T_AMB)
        assert np.array_equal(again.P, tm_nominal.P)

    def test_on_units_inside_band_drift_cooler(self, grid40, tm_nominal):
        # pick the on bin at the band center; cooling moves mass to cooler bins
        N = grid40.n_bins
        b = int(grid40.temp_bin(T_SET))
        col = tm_nominal.P[:, N + b]
        cooler = col[N : N + b].sum()  # stays on, cooler bins
        warmer = col[N + b + 1 :].sum()
        assert cooler > warmer

    def test_off_units_inside_band_drift_warmer(self, grid40, tm_nominal):
        b = int(grid40.temp_bin(T_SET))
        col = tm_nominal.P[:, b]
        warmer = col[b + 1 : grid40.n_bins].sum()
        cooler = col[:b].sum()
        assert warmer > cooler

    def test_monte_carlo_convergence_on_doubling(self, grid40):
        # The oracle's own noise is binomial, as the bound in
        # TestMonteCarloOracle assumes: standardized entry differences
        # between an n and a 2n estimate.  Individual 3-sigma exceedances
        # are expected at this matrix size, so the bound is: none beyond
        # 5 sigma, at least 99% inside 3.
        n = 4000
        a = monte_carlo_matrix(DEFAULT_PARAMS, grid40, T_SET, DEADBAND, T_AMB, n_samples=n, seed=31)
        b = monte_carlo_matrix(DEFAULT_PARAMS, grid40, T_SET, DEADBAND, T_AMB, n_samples=2 * n, seed=32)
        pooled = (n * a + 2 * n * b) / (3 * n)
        var = pooled * (1.0 - pooled) * (1.0 / n + 1.0 / (2 * n))
        sigma = np.sqrt(var) + 1e-12
        z = np.abs(a - b) / sigma
        assert z.max() < 5.0
        assert (z < 3.0).mean() >= 0.99

    def test_band_must_be_inside_grid(self):
        grid = BinGrid(19.8, 23.0, 8)
        with pytest.raises(InvalidConfigurationError):
            estimate_transition_matrix(DEFAULT_PARAMS, grid, T_SET, DEADBAND, T_AMB)


class TestMonteCarloOracle:
    """The closed form against the Monte-Carlo estimator it replaced."""

    N_SAMPLES = 4000

    def test_defaults_match_pattern(self, grid40, tm_nominal):
        mc = monte_carlo_matrix(DEFAULT_PARAMS, grid40, T_SET, DEADBAND, T_AMB, n_samples=self.N_SAMPLES)
        assert np.array_equal(mc > 0.0, tm_nominal.P > 0.0)
        assert np.count_nonzero(tm_nominal.P) == 159

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        T_amb=st.floats(26.0, 38.0),
        T_set=st.floats(19.5, 22.5),
        deadband=st.floats(0.4, 2.0),
        n_bins=st.sampled_from([10, 40]),
    )
    @example(T_amb=T_AMB, T_set=T_SET, deadband=DEADBAND, n_bins=40)
    def test_within_five_binomial_standard_errors(self, T_amb, T_set, deadband, n_bins):
        grid = BinGrid(18.0, 24.0, n_bins)
        P = estimate_transition_matrix(DEFAULT_PARAMS, grid, T_set, deadband, T_amb).P
        n = self.N_SAMPLES
        mc = monte_carlo_matrix(DEFAULT_PARAMS, grid, T_set, deadband, T_amb, n_samples=n, seed=n_bins)
        se = np.sqrt(P * (1.0 - P) / n)
        # where P is 0 or 1 the bound is exact equality, so MC never lands
        # outside the closed form's pattern
        assert np.all(np.abs(mc - P) <= 5.0 * se + 1e-12)
        # the closed form may only add entries too small for n samples to hit
        missed = (P > 0.0) & (mc == 0.0)
        assert np.all(P[missed] * n <= 25.0)


class TestStationaryDistribution:
    def test_two_state_closed_form(self):
        # birth-death chain with known fixed point (5/6, 1/6)
        grid = BinGrid(T_min=19.5, T_max=20.5, n_bins=1)
        P = np.array([[0.9, 0.5], [0.1, 0.5]])
        tm = TransitionMatrix(P=P, grid=grid, dt_minutes=1.0, T_set=20.0, T_amb=32.0, deadband=1.0)
        result = stationary_distribution(tm)
        assert result.x == pytest.approx([5.0 / 6.0, 1.0 / 6.0], abs=1e-9)
        assert np.sum(np.abs(np.linalg.eigvals(P) - 1.0) < 1e-8) == 1
        assert result.residual <= 1e-10
        assert result.iterations >= 1

    def test_default_regime_converges(self, tm_nominal, x0_nominal):
        x = x0_nominal.x
        assert x0_nominal.residual <= 1e-10
        assert np.all(x >= 0.0)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        # mass concentrates on the deadband
        grid = tm_nominal.grid
        centers = np.concatenate([grid.centers, grid.centers])
        inside = (centers >= T_SET - 0.6 * DEADBAND) & (centers <= T_SET + 0.6 * DEADBAND)
        assert x[inside].sum() > 0.95

    def test_default_support_is_the_recurrent_class(self, tm_nominal, x0_nominal):
        A = tm_nominal.P
        supp = x0_nominal.x > 0.0
        assert np.count_nonzero(supp) == 16
        # C: states reachable from every state; x_0 lives exactly there
        n = A.shape[0]
        from_each, _ = reachable(A, np.eye(n, dtype=bool))
        assert np.array_equal(supp, from_each.all(axis=0))
        assert np.sum(np.abs(np.linalg.eigvals(A) - 1.0) < 1e-8) == 1

    def test_nominal_power_matches_micro_long_run(self, tm_nominal, x0_nominal, c_out):
        p_nom = float(c_out @ x0_nominal.x)
        spec = FleetSpec(n_units=800, heterogeneity=0.0, seed=71)
        fleet = sample_fleet(spec)
        power = simulate_fleet(FleetStepper(fleet), 24 * 60)
        micro_mean = power[120:].mean() * P_ON_TOTAL / fleet.params["P_rate"].sum()
        assert abs(p_nom - micro_mean) <= 0.05 * micro_mean

    def test_identity_matrix_flagged_non_unique(self):
        # both states are closed classes: no unique distribution exists
        grid = BinGrid(T_min=19.5, T_max=20.5, n_bins=1)
        tm = TransitionMatrix(P=np.eye(2), grid=grid, dt_minutes=1.0, T_set=20.0, T_amb=32.0, deadband=1.0)
        with pytest.raises(NumericalFailureError, match="unique"):
            stationary_distribution(tm)

    def test_nonconvergent_chain_raises(self):
        # the periodic two-cycle has a fixed point and the solve finds it;
        # a matrix that leaks mass has none, and the residual gate says so
        grid = BinGrid(T_min=19.5, T_max=20.5, n_bins=1)
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        tm = TransitionMatrix(P=P, grid=grid, dt_minutes=1.0, T_set=20.0, T_amb=32.0, deadband=1.0)
        result = stationary_distribution(tm)
        assert result.x == pytest.approx([0.5, 0.5], abs=1e-9)
        leaky = TransitionMatrix(
            P=np.array([[0.9, 0.5], [0.05, 0.5]]),
            grid=grid, dt_minutes=1.0, T_set=20.0, T_amb=32.0, deadband=1.0,
        )
        with pytest.raises(NumericalFailureError, match="residual"):
            stationary_distribution(leaky)


class TestRemarkOneZero:
    def test_actuated_column_empties_on_block(self, tm_actuated, x0_nominal, c_out):
        # a setpoint raise of 2 degC with a 1 degC band switches every
        # stationary on unit off within one step
        val = float(c_out @ (tm_actuated.P @ x0_nominal.x))
        assert abs(val) <= 1e-12 * P_ON_TOTAL


class TestSerialization:
    def test_round_trip_bit_exact(self, tm_nominal, tmp_path):
        path = tmp_path / "matrix.csv"
        save_matrix(tm_nominal, path)
        loaded = load_matrix(path)
        assert np.array_equal(loaded.P, tm_nominal.P)
        assert loaded.dt_minutes == tm_nominal.dt_minutes
        assert loaded.T_set == tm_nominal.T_set
        assert loaded.T_amb == tm_nominal.T_amb
        assert loaded.deadband == tm_nominal.deadband
        assert loaded.grid == tm_nominal.grid

    def test_loader_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("step,unit\n0,0\n")
        with pytest.raises(InvalidInputError):
            load_matrix(path)

    def test_loader_validates_stochasticity(self, tm_nominal, tmp_path):
        path = tmp_path / "matrix.csv"
        save_matrix(tm_nominal, path)
        text = path.read_text().splitlines()
        text[8] = ",".join(["0.5"] * tm_nominal.grid.n_states)  # corrupt a row
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(NumericalFailureError):
            load_matrix(path)

    def test_loader_refuses_nan_entry(self, tm_nominal, tmp_path):
        # NaN passes `P < 0` and `worst > 1e-9` alike; validate is phrased
        # so that it fails both tests instead
        path = tmp_path / "matrix.csv"
        save_matrix(tm_nominal, path)
        text = path.read_text().splitlines()
        text[8] = ",".join(["nan"] + text[8].split(",")[1:])
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(NumericalFailureError, match="NaN"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "line, edit, match",
        [
            (8, lambda row: row.replace(",", ",x", 1), "line 9"),  # a value that is not a number
            (3, lambda row: "# T_amb=warm", "T_amb=warm"),  # a metadata field that is not a number
            (9, lambda row: row.rsplit(",", 1)[0], "line 10 holds 79 entries"),  # a short row
            (7, lambda row: "# n_bins=40.5", "n_bins must be an integer"),  # not read as 40 bins
            # an operating point that parses but cannot be used
            (1, lambda row: "# dt_minutes=nan", "dt_minutes must be finite"),
            (2, lambda row: "# T_set=inf", "T_set must be finite"),
            (3, lambda row: "# T_amb=-inf", "T_amb must be finite"),
            (4, lambda row: "# deadband=nan", "deadband must be finite"),
            (5, lambda row: "# T_min=-inf", "T_min must be finite"),
            (1, lambda row: "# dt_minutes=0.0", "dt_minutes must be positive"),
            (4, lambda row: "# deadband=-1.0", "deadband must be positive"),
        ],
        ids=[
            "value", "field", "ragged", "n_bins", "dt_minutes_nan", "T_set_inf", "T_amb_-inf", "deadband_nan",
            "T_min_-inf", "dt_minutes_zero", "deadband_negative",
        ],
    )
    def test_loader_refuses_malformed_lines(self, tm_nominal, tmp_path, line, edit, match):
        path = tmp_path / "matrix.csv"
        save_matrix(tm_nominal, path)
        text = path.read_text().splitlines()
        text[line] = edit(text[line])
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(InvalidInputError, match=match):
            load_matrix(path)
