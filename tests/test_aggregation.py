"""Tests for multi-fleet reach-and-hold combination."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tclflex import aggregation
from tclflex.aggregation import (
    MODES,
    combine,
    combine_many,
    combined_set,
    query_p_at_t,
    query_t_at_p,
    save_combined,
)
from tclflex.errors import InvalidInputError
from tclflex.reachhold import INNER, ReachHoldSet

from aggregation_reference import pairs, reference_combine, reference_p_at_t, reference_t_at_p


def make_set(samples, method=INNER, dt=1.0, **extra):
    """Frontier from (T_hold, P_hold) pairs."""
    regime = {"dt_minutes": dt, **extra}
    return ReachHoldSet([t for t, _ in samples], [p for _, p in samples], method, regime)


def as_set(frontier):
    """A frontier of combine, the arrays (T_hold, P_hold), as a set the
    queries read."""
    return ReachHoldSet(*frontier, INNER, {"dt_minutes": 1.0})


def as_pairs(frontier):
    """A frontier of combine as a list of (T_hold, P_hold) pairs."""
    T, P = frontier
    return list(zip(T.tolist(), P.tolist()))


def random_set(rng, n_points=5, p_top=2000.0):
    ts = np.sort(rng.choice(np.arange(1, 200), size=n_points, replace=False))
    ps = np.sort(rng.uniform(10.0, p_top, size=n_points))[::-1]
    return make_set(list(zip(ts.tolist(), ps.tolist())))


FRONTIER = [(10, 100.0), (20, 80.0), (40, 50.0)]


class TestQueries:
    def test_p_at_t_steps_conservatively(self):
        s = make_set(FRONTIER)
        expected = {0: 100.0, 10: 100.0, 11: 80.0, 20: 80.0, 21: 50.0, 40: 50.0, 41: 0.0}
        for t, want in expected.items():
            assert query_p_at_t(s, t) == want

    def test_t_at_p_steps_conservatively(self):
        s = make_set(FRONTIER)
        expected = {0.0: 40, 50.0: 40, 50.1: 20, 80.0: 20, 90.0: 10, 100.0: 10, 100.1: 0}
        for p, want in expected.items():
            assert query_t_at_p(s, p) == want

    def test_interpolation_never_exceeds_neighbors(self):
        s = make_set(FRONTIER)
        for t in range(0, 45):
            v = query_p_at_t(s, t)
            above = [p for T, p in pairs(s) if T >= t]
            assert v == (max(above) if above else 0.0)

    def test_negative_arguments_rejected(self):
        s = make_set(FRONTIER)
        with pytest.raises(InvalidInputError):
            query_p_at_t(s, -1)
        with pytest.raises(InvalidInputError):
            query_t_at_p(s, -0.5)


# a loaded set may rise along T by up to its tolerance, 1e-9 P_on_total
LOADED_ON_TOTAL_KW = 3500.0


@st.composite
def loaded_sets(draw):
    """A set as load_set may return it: distinct holds, P nonincreasing
    but for rises within the frontier's tolerance, and possibly empty."""
    holds = sorted(draw(st.sets(st.integers(1, 60), max_size=8)))
    tol = 1e-9 * LOADED_ON_TOTAL_KW
    p, samples = draw(st.floats(1.0, 2000.0)), []
    for t in holds:
        samples.append((t, p))
        # repeated values exercise the ties, tiny rises the suffix maximum
        p = max(0.5, p + draw(st.sampled_from([0.0, tol, 0.5 * tol, -tol, -1.0, -100.0])))
    return make_set(samples, P_on_total_kw=LOADED_ON_TOTAL_KW)


class TestAgainstListReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s1=loaded_sets(), s2=loaded_sets())
    def test_queries_and_every_mode_match_the_list_scan(self, s1, s2):
        for s in (s1, s2):
            for t in range(0, 62):
                assert query_p_at_t(s, t) == reference_p_at_t(s, t)
            for p in [0.0, 0.25, 3000.0] + s.P_hold_kw.tolist():
                assert query_t_at_p(s, p) == reference_t_at_p(s, p)
        got, want = combine(s1, s2), reference_combine(s1, s2)
        for mode in MODES:
            assert as_pairs(got[mode]) == want[mode]

    def test_nan_reduction_rejected(self):
        with pytest.raises(InvalidInputError):
            query_t_at_p(make_set(FRONTIER), float("nan"))


class TestCombine:
    def test_empty_component_is_identity(self):
        s1 = make_set(FRONTIER)
        empty = make_set([])
        combined = combine(s1, empty)
        for mode in ("exclusive", "simultaneous", "consecutive", "union"):
            assert as_pairs(combined[mode]) == FRONTIER

    def test_commutative_on_all_frontiers(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s1, s2 = random_set(rng), random_set(rng)
            a, b = combine(s1, s2), combine(s2, s1)
            for mode in MODES:
                assert as_pairs(a[mode]) == as_pairs(b[mode])

    def test_identical_fleets_double_p_simultaneously(self):
        s = make_set(FRONTIER)
        sim = as_set(combine(s, s)["simultaneous"])
        for t in (0, 10, 15, 20, 40):
            assert query_p_at_t(sim, t) == 2 * query_p_at_t(s, t)
        assert query_p_at_t(sim, 41) == 0.0

    def test_identical_fleets_double_t_consecutively(self):
        s = make_set(FRONTIER)
        con = as_set(combine(s, s)["consecutive"])
        for p in (10.0, 50.0, 80.0, 100.0):
            assert query_t_at_p(con, p) == 2 * query_t_at_p(s, p)
        assert query_t_at_p(con, 100.5) == 0

    def test_exclusive_is_pointwise_max(self):
        s1 = make_set([(10, 100.0), (30, 40.0)])
        s2 = make_set([(20, 70.0), (50, 20.0)])
        ex = as_set(combine(s1, s2)["exclusive"])
        for t in range(0, 55):
            assert query_p_at_t(ex, t) == max(query_p_at_t(s1, t), query_p_at_t(s2, t))

    def test_union_dominates_components_and_modes(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            s1, s2 = random_set(rng), random_set(rng)
            combined = combine(s1, s2)
            union = as_set(combined["union"])
            for t in range(0, 220, 7):
                u = query_p_at_t(union, t)
                assert u >= query_p_at_t(s1, t) - 1e-12
                assert u >= query_p_at_t(s2, t) - 1e-12
                for mode in ("exclusive", "simultaneous", "consecutive"):
                    assert u >= query_p_at_t(as_set(combined[mode]), t) - 1e-12

    def test_union_matches_lattice_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            s1, s2 = random_set(rng), random_set(rng)
            union = as_set(combine(s1, s2)["union"])
            p_candidates = sorted({p for s in (s1, s2) for p in s.P_hold_kw.tolist()})
            for t in range(0, 210, 3):
                best_consec = max(
                    (p for p in p_candidates if query_t_at_p(s1, p) + query_t_at_p(s2, p) >= t),
                    default=0.0,
                )
                want = max(
                    query_p_at_t(s1, t) + query_p_at_t(s2, t),  # covers exclusive too
                    best_consec,
                )
                assert query_p_at_t(union, t) == pytest.approx(want, abs=1e-9)

    def test_dt_mismatch_rejected(self):
        s1 = make_set(FRONTIER, dt=1.0)
        s2 = make_set(FRONTIER, dt=5.0)
        with pytest.raises(InvalidInputError, match="step"):
            combine(s1, s2)

    def test_method_mismatch_rejected(self):
        s1 = make_set(FRONTIER, method="inner")
        s2 = make_set(FRONTIER, method="outer")
        with pytest.raises(InvalidInputError, match="method"):
            combine(s1, s2)

    def test_regime_power_fields_sum(self):
        s1 = make_set(FRONTIER, P_on_total_kw=3500.0, P_nom_kw=1400.0)
        s2 = make_set([(5, 200.0)], P_on_total_kw=700.0, P_nom_kw=300.0)
        sim = combined_set(s1, s2, "simultaneous")
        assert sim.regime["P_on_total_kw"] == 4200.0
        assert sim.regime["P_nom_kw"] == 1700.0
        assert pairs(sim) == as_pairs(combine(s1, s2)["simultaneous"])

    def test_frontiers_are_keyed_by_mode(self):
        combined = combine(make_set(FRONTIER), make_set([(15, 60.0), (25, 30.0)]))
        assert tuple(combined) == MODES
        for T, P in combined.values():
            assert T.dtype.kind == "i" and P.dtype.kind == "f" and T.shape == P.shape

    def test_unknown_mode_rejected(self):
        s = make_set(FRONTIER)
        with pytest.raises(InvalidInputError, match="mode"):
            combined_set(s, s, "sequential")


class TestCombineMany:
    def test_three_identical_fleets_triple_consecutive_holds(self):
        s = make_set(FRONTIER)
        combined = combine_many([s, s, s])
        # the fold carries the pairwise union, so the final consecutive
        # frontier chains (s + s) with s
        con = as_set(combined["consecutive"])
        assert query_t_at_p(con, 50.0) >= 3 * query_t_at_p(s, 50.0)

    def test_components_just_above_their_nominal_demand_fold(self):
        # each 0.25 kW-nominal set peaks 0.9e-9 kW above its P_nom, inside its
        # own tolerance; the excess adds up over the fold, and is clipped
        regime = {"P_on_total_kw": 0.5, "P_nom_kw": 0.25}
        a = make_set([(5, 0.2500000009), (20, 0.1)], **regime)
        b = make_set([(8, 0.2500000009), (30, 0.05)], **regime)
        combined = combine_many([a, b, a])
        assert tuple(combined) == MODES
        assert max(P.max() for _, P in combined.values()) <= 0.75
        assert combined_set(a, b, "union").P_hold_kw[0] == 0.5

    def test_each_stage_combines_once(self, monkeypatch):
        # the last stage's four frontiers come from one combine, clipped
        # as combined_set clips each of them
        regime = {"P_on_total_kw": 0.5, "P_nom_kw": 0.25}
        a = make_set([(5, 0.2500000009), (20, 0.1)], **regime)
        b = make_set([(8, 0.2500000009), (30, 0.05)], **regime)
        expected = {mode: combined_set(combined_set(a, b, "union"), a, mode) for mode in MODES}
        calls = []
        monkeypatch.setattr(aggregation, "combine", lambda *sets: calls.append(sets) or combine(*sets))
        combined = combine_many([a, b, a])
        assert len(calls) == 2
        for mode in MODES:
            T, P = combined[mode]
            assert np.array_equal(T, expected[mode].T_hold_steps) and np.array_equal(P, expected[mode].P_hold_kw)

    def test_needs_two_sets(self):
        with pytest.raises(InvalidInputError):
            combine_many([make_set(FRONTIER)])


class TestSaveCombined:
    def test_csv_layout_and_determinism(self, tmp_path):
        s1 = make_set(FRONTIER, P_on_total_kw=3500.0)
        s2 = make_set([(15, 60.0), (25, 30.0)], P_on_total_kw=700.0)
        combined = combine(s1, s2)
        path = tmp_path / "combined.csv"
        save_combined(s1, s2, combined, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "T_hold_steps,T_hold_hours,P_hold_kW,mode"
        modes_seen = {line.split(",")[-1] for line in lines[1:]}
        assert modes_seen == set(MODES)
        sidecar = json.loads((tmp_path / "combined.json").read_text())
        assert sidecar["method"] == INNER
        assert len(sidecar["component_regimes"]) == 2
        save_combined(s1, s2, combined, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
