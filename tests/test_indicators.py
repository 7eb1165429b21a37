"""Region-of-interest construction and the four quality indicators."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefnorm.core import make_engine
from prefnorm.indicators import (DEFAULT_ROI_RADIUS, RoiReferenceSet,
                                 build_roi_reference_set, e_ideal, e_nadir,
                                 igd_plus_c, ore)
from prefnorm.normalization import TrueScaler
from prefnorm.problems import get_problem

from conftest import oracle_igd_plus, oracle_igd_plus_c

UNIT = TrueScaler(ideal=np.zeros(2), nadir=np.ones(2))


def unit_scaler(m):
    return TrueScaler(ideal=np.zeros(m), nadir=np.ones(m))


def circle_front(count=200):
    theta = np.linspace(0.0, np.pi / 2.0, count)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def nearest_row(points, z):
    """The first of the rows of ``points`` closest to ``z``."""
    return points[np.argmin(np.linalg.norm(points - z, axis=1))]


def test_default_radius_value():
    assert DEFAULT_ROI_RADIUS == 0.1


class TestBuildRoi:
    def test_center_is_closest_front_point(self):
        pf = circle_front()
        z = np.array([0.6, 0.4])
        roi = build_roi_reference_set(pf, z, 0.1, UNIT)
        pivot = nearest_row(pf, z)
        near = np.linalg.norm(pf - pivot, axis=1) < 0.1
        assert np.array_equal(roi.points, pf[near])
        assert (roi.points == pivot).all(axis=1).any()

    def test_members_within_strict_radius(self):
        pf = circle_front()
        roi = build_roi_reference_set(pf, np.array([0.6, 0.4]), 0.1, UNIT)
        pivot = nearest_row(pf, np.array([0.6, 0.4]))
        d = np.linalg.norm(roi.points - pivot, axis=1)
        assert np.all(d < 0.1)
        assert roi.points.shape[0] >= 1

    def test_huge_radius_saturates_to_full_front(self):
        pf = circle_front(50)
        roi = build_roi_reference_set(pf, np.array([0.6, 0.4]), 10.0, UNIT)
        assert roi.points.shape[0] == 50

    def test_tiny_radius_keeps_only_center(self):
        pf = circle_front(50)
        roi = build_roi_reference_set(pf, np.array([0.6, 0.4]), 1e-9, UNIT)
        assert roi.points.shape[0] == 1
        assert np.array_equal(roi.points[0],
                              nearest_row(pf, np.array([0.6, 0.4])))

    def test_center_tie_resolves_to_lowest_index(self):
        pf = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.array([0.5, 0.5])
        roi = build_roi_reference_set(pf, z, 0.1, UNIT)
        # both rows lie at the same distance from z; the pivot is the first
        assert np.array_equal(roi.points, [[0.0, 1.0]])

    def test_normalization_uses_scaler(self):
        scaler = TrueScaler(ideal=np.zeros(2), nadir=np.array([1.0, 10.0]))
        pf = np.array([[0.0, 10.0], [0.5, 5.0], [1.0, 0.0]])
        roi = build_roi_reference_set(pf, np.array([0.5, 5.0]), 0.2, scaler)
        # normalized, the rows sit 0.707 apart and z on the middle one
        assert np.allclose(roi.points, [[0.5, 0.5]])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_roi_reference_set(np.empty((0, 2)), np.zeros(2), 0.1,
                                    UNIT)
        with pytest.raises(ValueError):
            build_roi_reference_set(circle_front(), np.zeros(2), 0.0, UNIT)


class TestIgdPlusC:
    def test_exact_cover_scores_zero(self):
        pf = circle_front(80)
        roi = build_roi_reference_set(pf, np.array([0.6, 0.4]), 0.15, UNIT)
        # the reference points themselves are a perfect solution set
        raw = roi.points  # unit scaler: normalized == raw
        assert igd_plus_c(raw, roi) == pytest.approx(0.0, abs=1e-12)

    def test_single_weak_dominator_scores_zero(self):
        pf = circle_front(80)
        roi = build_roi_reference_set(pf, np.array([0.6, 0.4]), 0.15, UNIT)
        assert igd_plus_c(np.array([[0.0, 0.0]]), roi) == 0.0

    def test_matches_double_loop_oracle(self):
        engine = make_engine(5)
        pf = circle_front(120)
        roi = build_roi_reference_set(pf, np.array([0.6, 0.4]), 0.2, UNIT)
        for _ in range(10):
            objs = engine.uniform(0.0, 1.5, size=(20, 2))
            want = oracle_igd_plus(roi.points, objs)
            assert igd_plus_c(objs, roi) == pytest.approx(want, rel=1e-12)

    def test_adding_solutions_never_hurts(self):
        engine = make_engine(8)
        pf = circle_front(100)
        roi = build_roi_reference_set(pf, np.array([0.6, 0.4]), 0.2, UNIT)
        objs = engine.uniform(0.0, 1.5, size=(10, 2))
        base = igd_plus_c(objs, roi)
        extended = np.vstack([objs, engine.uniform(0.0, 1.5, size=(5, 2))])
        assert igd_plus_c(extended, roi) <= base + 1e-15

    @given(st.integers(2, 4), st.integers(0, 10000))
    @settings(max_examples=60, deadline=None)
    def test_weak_pareto_compliance(self, m, seed):
        # X weakly dominates Y pointwise, so X can never score worse
        engine = make_engine(seed)
        scaler = unit_scaler(m)
        pf = engine.uniform(size=(60, m))
        pf /= np.linalg.norm(pf, axis=1, keepdims=True)
        roi = build_roi_reference_set(pf, np.full(m, 0.5), 0.3, scaler)
        xs = engine.uniform(0.0, 1.0, size=(12, m))
        ys = xs + engine.uniform(0.0, 0.5, size=xs.shape)
        assert igd_plus_c(xs, roi) <= igd_plus_c(ys, roi) + 1e-12

    def test_rejects_empty_solutions(self):
        pf = circle_front(20)
        roi = build_roi_reference_set(pf, np.array([0.6, 0.4]), 0.2, UNIT)
        with pytest.raises(ValueError):
            igd_plus_c(np.empty((0, 2)), roi)

    @pytest.mark.parametrize("cols", [1, 2, 4])
    def test_rejects_wrong_column_count(self, cols):
        # a (N, 1) array used to broadcast against the m = 3 ROI and score 0
        roi = build_roi_reference_set(np.eye(3), np.full(3, 0.5), 2.0,
                                      unit_scaler(3))
        with pytest.raises(ValueError, match=f"has {cols} columns.*m = 3"):
            igd_plus_c(np.full((5, cols), 0.5), roi)

    @given(m=st.integers(2, 10), n=st.sampled_from([1, 20, 100]),
           n_ref=st.sampled_from([1, 121, 1118]),
           scaled=st.booleans(), nan_row=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_bytes(self, m, n, n_ref, scaled, nan_row,
                                     seed):
        rng = np.random.default_rng(seed)
        # solutions scattered around reference points, objectives of
        # unequal magnitude
        points = rng.random((n_ref, m)) * 10.0 ** rng.integers(-3, 1, m)
        # duplicate reference rows and duplicate solutions make ties
        points[rng.random(n_ref) < 0.1] = points[0]
        objs = points[rng.integers(0, n_ref, size=n)] + rng.normal(
            0.0, 0.1, (n, m)) * 10.0 ** rng.integers(-3, 1, m)
        # solutions on reference points, or weakly dominating them (exact
        # under the unit scaler)
        pick = rng.integers(0, n_ref, size=n)
        on = rng.random(n) < 0.3
        objs[on] = points[pick[on]]
        below = rng.random(n) < 0.3
        objs[below] = points[pick[below]] - rng.random((below.sum(), m)) * (
            rng.random((below.sum(), m)) < 0.5)
        objs[rng.random(n) < 0.1] = objs[0]
        objs[rng.random((n, m)) < 0.1] = -0.0
        if nan_row:
            objs[rng.integers(0, n)] = np.nan
        scaler = unit_scaler(m)
        if scaled:
            ideal = rng.uniform(-1.0, 0.0, m)
            scaler = TrueScaler(ideal=ideal,
                                nadir=ideal + rng.uniform(0.5, 3.0, m))
        roi = RoiReferenceSet(points=points, scaler=scaler)
        got = igd_plus_c(objs, roi)
        want = oracle_igd_plus_c(objs, roi)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert np.isnan(got) == nan_row


class TestBoundErrors:
    def test_e_ideal_zero_at_truth(self):
        assert e_ideal(np.zeros(2), UNIT) == 0.0

    def test_e_ideal_frozen_value(self):
        # unit ranges, estimate off by (0.1, 0.2): 0.01 + 0.04
        assert e_ideal(np.array([0.1, 0.2]), UNIT) == pytest.approx(0.05)

    def test_e_ideal_scale_invariance(self):
        scaler = TrueScaler(ideal=np.array([2.0, -4.0]),
                            nadir=np.array([4.0, 0.0]))
        z_lb = np.array([2.0 + 0.2, -4.0 + 0.8])
        want = e_ideal(np.array([0.1, 0.2]), UNIT)
        assert e_ideal(z_lb, scaler) == pytest.approx(want)

    def test_e_nadir_zero_at_truth(self):
        assert e_nadir(np.ones(2), UNIT) == 0.0

    def test_e_nadir_frozen_value(self):
        # unit ranges, estimate short by 0.3 on one objective
        assert e_nadir(np.array([0.7, 1.0]), UNIT) == pytest.approx(0.09)

    def test_e_nadir_symmetric_over_and_under(self):
        over = e_nadir(np.array([1.3, 1.0]), UNIT)
        under = e_nadir(np.array([0.7, 1.0]), UNIT)
        assert over == pytest.approx(under)


class TestOre:
    def test_perfect_bounds_score_zero(self):
        assert ore(np.zeros(2), np.ones(2), UNIT) == 0.0

    def test_equal_partial_coverage_scores_zero(self):
        assert ore(np.array([0.2, 0.3]), np.array([0.7, 0.8]),
                   UNIT) == pytest.approx(0.0)

    def test_frozen_population_std(self):
        # coverage ratios {0.2, 0.8}: population std is 0.3
        value = ore(np.zeros(2), np.array([0.2, 0.8]), UNIT)
        assert value == pytest.approx(0.3)

    def test_population_not_sample_convention(self):
        ratios = np.array([0.2, 0.5, 0.8])
        value = ore(np.zeros(3), ratios, unit_scaler(3))
        assert value == pytest.approx(np.std(ratios, ddof=0))
        assert value != pytest.approx(np.std(ratios, ddof=1))

    def test_affine_rescaling_invariance(self):
        scaler = TrueScaler(ideal=np.array([0.0, 100.0]),
                            nadir=np.array([2.0, 300.0]))
        z_lb = np.array([0.0, 100.0])
        z_ub = np.array([0.4, 260.0])
        assert ore(z_lb, z_ub, scaler) == pytest.approx(
            ore(np.zeros(2), np.array([0.2, 0.8]), UNIT))


def test_roi_on_real_problem_tracks_reference_point():
    problem = get_problem("dtlz2", 2)
    pf = problem.sample_pf(500, make_engine(3))
    scaler = TrueScaler(ideal=problem.true_ideal, nadir=problem.true_nadir)
    roi = build_roi_reference_set(pf, np.array([0.6, 0.4]), 0.1, scaler)
    # all ROI members sit on the normalized unit circle near the pivot
    assert np.allclose(np.linalg.norm(roi.points, axis=1), 1.0, atol=1e-9)
    pivot = nearest_row(scaler.normalize(pf), np.array([0.6, 0.4]))
    assert (roi.points == pivot).all(axis=1).any()
    assert np.all(np.linalg.norm(roi.points - pivot, axis=1) < 0.1)
