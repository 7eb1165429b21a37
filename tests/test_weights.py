"""Simplex lattices, simplex projection, preference-shifted weight sets."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import (oracle_das_dennis_lattice, oracle_distance_to_set,
                      oracle_farthest_picks)
from prefnorm.algorithms import AlgorithmParams
from prefnorm.core import make_engine
from prefnorm.weights import (_distance_to_set, _farthest_picks,
                              das_dennis_lattice, farthest_point_subsample,
                              lattice_size, neighborhoods, nums_shift,
                              project_to_simplex, uniform_simplex_set)


def _on_simplex(points, tol=1e-9):
    points = np.atleast_2d(points)
    return (np.all(points >= -tol)
            and np.allclose(points.sum(axis=1), 1.0, atol=tol))


@pytest.mark.parametrize("m,divisions", [(2, 5), (3, 4), (3, 12), (4, 6)])
def test_das_dennis_count_and_membership(m, divisions):
    lattice = das_dennis_lattice(m, divisions)
    expected = math.comb(divisions + m - 1, m - 1)
    assert lattice.shape == (expected, m)
    assert lattice_size(m, divisions) == expected
    assert _on_simplex(lattice)
    # vertices of the simplex are lattice members
    for i in range(m):
        vertex = np.zeros(m)
        vertex[i] = 1.0
        assert np.any(np.all(np.isclose(lattice, vertex), axis=1))


@pytest.mark.parametrize("m,divisions", [
    *((m, h) for m in range(1, 11) for h in range(16)),
    # the lattices under the default 10,000-point front samples
    (2, 9999), (3, 139), (5, 19)])
def test_das_dennis_matches_reference_bytes(m, divisions):
    want = oracle_das_dennis_lattice(m, divisions)
    got = das_dennis_lattice(m, divisions)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_das_dennis_rows_are_unique():
    lattice = das_dennis_lattice(3, 10)
    assert len(np.unique(np.round(lattice, 12), axis=0)) == len(lattice)


@pytest.mark.parametrize("m,count", [(2, 7), (3, 15), (3, 20), (3, 100),
                                     (4, 50), (5, 210)])
def test_uniform_simplex_set_exact_count(m, count):
    engine = make_engine(3)
    weights = uniform_simplex_set(m, count, engine)
    assert weights.shape == (count, m)
    assert _on_simplex(weights)


def test_uniform_simplex_set_is_deterministic():
    a = uniform_simplex_set(3, 37, make_engine(5))
    b = uniform_simplex_set(3, 37, make_engine(5))
    assert np.array_equal(a, b)


def test_farthest_point_subsample_spreads_points():
    engine = make_engine(9)
    points = engine.uniform(size=(500, 2))
    picked = farthest_point_subsample(points, 20)
    assert picked.shape == (20, 2)
    # greedy max-min picks should be distinct
    assert len(np.unique(picked, axis=0)) == 20


def _pool(kind, n, m, scale, seed):
    """Candidate rows; the grid and duplicate kinds make distance ties."""
    engine = make_engine(seed)
    if kind == "grid":
        points = engine.integers(0, 3, size=(n, m)).astype(float)
    else:
        points = engine.uniform(size=(n, m))
    if kind == "duplicates":
        points[engine.integers(n, size=n // 2)] = points[
            engine.integers(n, size=n // 2)]
    return scale * points


_POOLS = dict(m=st.integers(2, 10), n=st.integers(1, 150),
              kind=st.sampled_from(["uniform", "grid", "duplicates"]),
              scale=st.sampled_from([1e-6, 1.0, 1e4]),
              seed=st.integers(0, 2**32 - 1))


@given(count=st.integers(1, 150), **_POOLS)
@settings(max_examples=150, deadline=None)
def test_farthest_picks_match_dense_oracle(count, m, n, kind, scale, seed):
    points = _pool(kind, n, m, scale, seed)
    count = min(count, n)
    dist = np.linalg.norm(points - points[0], axis=1)
    want_dist = dist.copy()
    want = oracle_farthest_picks(points, want_dist, count)
    assert np.array_equal(_farthest_picks(points, dist, count), want)
    assert dist.tobytes() == want_dist.tobytes()
    if count == n:
        return  # the whole pool comes back in its own order
    first = int(np.argmin(np.linalg.norm(points - points.mean(axis=0),
                                         axis=1)))
    start = np.linalg.norm(points - points[first], axis=1)
    rows = np.concatenate(([first],
                           oracle_farthest_picks(points, start, count - 1)))
    assert (farthest_point_subsample(points, count).tobytes()
            == points[rows].tobytes())


@given(anchors=st.integers(1, 60), mirrored=st.booleans(), **_POOLS)
@settings(max_examples=150, deadline=None)
def test_distance_to_set_matches_dense_oracle(anchors, mirrored, m, n, kind,
                                              scale, seed):
    pool = _pool(kind, n + anchors, m, scale, seed)
    points, anchors = pool[anchors:], pool[:anchors]
    if mirrored:
        # each point lies halfway between two anchors: a tie up to rounding
        offset = scale * make_engine(seed).uniform(-0.1, 0.1, points.shape)
        anchors = np.vstack([anchors, points + offset, points - offset])
    got = _distance_to_set(points, anchors)
    assert got.tobytes() == oracle_distance_to_set(points, anchors).tobytes()


@given(st.integers(2, 10), st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_uniform_simplex_set_matches_dense_oracle(m, count, seed):
    h = 0
    while lattice_size(m, h + 1) <= count:
        h += 1
    base = das_dennis_lattice(m, h)
    missing = count - base.shape[0]
    pool = make_engine(seed).dirichlet(np.ones(m), size=max(4 * missing,
                                                              1000))
    dist = oracle_distance_to_set(pool, base)
    want = np.vstack([base, pool[oracle_farthest_picks(pool, dist,
                                                       missing)]])
    got = uniform_simplex_set(m, count, make_engine(seed))
    assert got.tobytes() == want.tobytes()


def _projection_oracle(z):
    m = len(z)
    res = minimize(lambda x: np.sum((x - z) ** 2), np.full(m, 1.0 / m),
                   method="SLSQP", bounds=[(0.0, None)] * m,
                   constraints=[{"type": "eq",
                                 "fun": lambda x: x.sum() - 1.0}])
    return res.x


@pytest.mark.parametrize("z", [
    [0.2, 0.3, 0.5],
    [0.9, 0.9, 0.9],
    [-0.5, 0.2, 0.1],
    [2.0, 0.0, 0.0],
    [0.1, 0.1],
])
def test_project_to_simplex_matches_qp_oracle(z):
    z = np.asarray(z, dtype=float)
    got = project_to_simplex(z)
    want = _projection_oracle(z)
    assert _on_simplex(got)
    assert np.allclose(got, want, atol=1e-6)


def test_project_to_simplex_fixes_simplex_points():
    z = np.array([0.25, 0.25, 0.5])
    assert np.allclose(project_to_simplex(z), z)


class TestNumsShift:
    def setup_method(self):
        self.engine = make_engine(21)
        self.weights = uniform_simplex_set(3, 60, self.engine)
        self.z = np.array([0.2, 0.3, 0.4])
        self.center = project_to_simplex(self.z)

    def test_shifted_set_stays_on_simplex(self):
        shifted = nums_shift(self.weights, self.z, 0.3)
        assert _on_simplex(shifted)

    def test_tau_one_is_identity(self):
        shifted = nums_shift(self.weights, self.z, 1.0)
        assert np.allclose(shifted, self.weights)

    def test_contraction_toward_projected_reference(self):
        shifted = nums_shift(self.weights, self.z, 0.3)
        before = np.linalg.norm(self.weights - self.center, axis=1)
        after = np.linalg.norm(shifted - self.center, axis=1)
        assert np.all(after <= before + 1e-12)
        moved = before > 1e-9
        assert np.all(after[moved] < before[moved])

    def test_extent_grows_with_tau(self):
        spreads = []
        for tau in (0.1, 0.3, 0.6, 1.0):
            shifted = nums_shift(self.weights, self.z, tau)
            spreads.append(np.linalg.norm(shifted - self.center,
                                          axis=1).max())
        assert all(a < b for a, b in zip(spreads, spreads[1:]))

    def test_points_move_along_their_ray(self):
        shifted = nums_shift(self.weights, self.z, 0.4)
        for w, s in zip(self.weights, shifted):
            ray = w - self.center
            norm = np.linalg.norm(ray)
            if norm < 1e-9:
                continue
            t = np.dot(s - self.center, ray) / norm ** 2
            assert 0.0 <= t <= 1.0 + 1e-12
            assert np.allclose(s - self.center, t * ray, atol=1e-9)

    def test_reference_outside_simplex_is_projected(self):
        z = np.array([1.4, -0.2, 0.1])
        shifted = nums_shift(self.weights, z, 0.3)
        assert _on_simplex(shifted)
        center = project_to_simplex(z)
        assert np.all(np.linalg.norm(shifted - center, axis=1)
                      <= np.linalg.norm(self.weights - center, axis=1)
                      + 1e-12)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            nums_shift(self.weights, self.z, 0.0)
        with pytest.raises(ValueError):
            nums_shift(self.weights, self.z, 1.2)


def test_neighborhoods_start_with_self():
    engine = make_engine(31)
    weights = uniform_simplex_set(3, 40, engine)
    nbs = neighborhoods(weights, 10)
    assert nbs.shape == (40, 10)
    assert np.array_equal(nbs[:, 0], np.arange(40))


def test_neighborhoods_sorted_by_distance():
    engine = make_engine(33)
    weights = uniform_simplex_set(3, 25, engine)
    nbs = neighborhoods(weights, 8)
    for i in range(25):
        dists = np.linalg.norm(weights[nbs[i]] - weights[i], axis=1)
        assert np.all(np.diff(dists) >= -1e-12)
        # no index outside the chosen neighbourhood is strictly closer
        outside = np.setdiff1d(np.arange(25), nbs[i])
        if outside.size:
            out_d = np.linalg.norm(weights[outside] - weights[i], axis=1)
            assert out_d.min() >= dists.max() - 1e-12


@pytest.mark.parametrize("m", range(2, 11))
def test_neighborhoods_match_norm_bytes(m):
    # the weight sets run_moead_nums builds, at its default tau and T
    params = AlgorithmParams()
    engine = make_engine(60 + m)
    for mu in (params.neighborhood_t, 100):
        z = engine.uniform(0.0, 1.0, m)
        weights = nums_shift(uniform_simplex_set(m, mu, engine), z,
                             params.tau)
        dist = np.linalg.norm(weights[:, None, :] - weights[None, :, :],
                              axis=2)
        want = np.argsort(dist, axis=1, kind="stable")
        got = neighborhoods(weights, params.neighborhood_t)
        assert got.tobytes() == want[:, :params.neighborhood_t].tobytes()
