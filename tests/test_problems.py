"""Benchmark problem definitions, known values, Pareto sample geometry."""
import numpy as np
import pytest

from conftest import oracle_linear_objectives, oracle_spherical_objectives
from prefnorm import problems
from prefnorm.core import make_engine
from prefnorm.problems import (SUITES, _linear_objectives, _pf_pool_size,
                               _spherical_objectives, get_problem,
                               problem_names)
from prefnorm.ranking import nondominated_mask

ALL_NAMES = problem_names()
K_BY_FAMILY = {"dtlz1": 5, "dtlz2": 10, "dtlz3": 10, "dtlz4": 10,
               "dtlz5": 10, "dtlz6": 10, "dtlz7": 20}


def base_family(name):
    return name[1:] if name[0] in "si" else name


def test_registry_contains_all_families():
    assert len(ALL_NAMES) == 15
    assert "dtlz1" in ALL_NAMES and "sdtlz4" in ALL_NAMES
    assert "idtlz4" in ALL_NAMES and "dtlz7" in ALL_NAMES
    assert "sdtlz5" not in ALL_NAMES and "idtlz7" not in ALL_NAMES
    # every name sits in exactly one suite, suites in registry order
    assert [name for suite in SUITES.values() for name in suite] == ALL_NAMES


def test_get_problem_is_case_insensitive():
    assert get_problem("DTLZ2", 3).name == "dtlz2"
    assert repr(get_problem("SDTLZ2", 3)) == "sdtlz2(m=3, n=12)"


def test_get_problem_unknown_name():
    with pytest.raises(KeyError):
        get_problem("dtlz9", 3)


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("m", [2, 3, 5])
def test_dimensions_follow_family_rule(name, m):
    problem = get_problem(name, m)
    k = K_BY_FAMILY[base_family(name)]
    assert problem.k == k
    assert problem.n == m + k - 1
    assert problem.lower.shape == (problem.n,)
    assert np.all(problem.lower == 0.0) and np.all(problem.upper == 1.0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_evaluate_batch_matches_single(name):
    # moead-nums evaluates a generation's trials as one block and each wave
    # of rebuilt trials, 1 to mu rows, as another, the GA family whole
    # batches: a row's objectives must not depend on the rows evaluated
    # with it
    for m in (2, 3, 5, 8, 10):
        problem = get_problem(name, m)
        engine = make_engine(17)
        for rows in (2, 3, 8, 17, 100, 101):
            xs = engine.uniform(size=(rows, problem.n))
            batch = problem.evaluate_batch(xs)
            for i in range(rows):
                assert np.array_equal(batch[i],
                                      problem.evaluate_batch(xs[i:i + 1])[0])


def test_dtlz1_optimal_plane():
    problem = get_problem("dtlz1", 3)
    x = np.full(problem.n, 0.5)
    x[0], x[1] = 0.3, 0.7
    f = problem.evaluate_batch(x)[0]
    # distance part is zero, objectives sum to one half
    assert f.sum() == pytest.approx(0.5)
    assert np.allclose(f, [0.5 * 0.3 * 0.7, 0.5 * 0.3 * 0.3, 0.5 * 0.7])


def test_dtlz2_corner_and_sphere():
    problem = get_problem("dtlz2", 3)
    x = np.full(problem.n, 0.5)
    x[0] = x[1] = 0.0
    assert np.allclose(problem.evaluate_batch(x)[0], [1.0, 0.0, 0.0],
                       atol=1e-12)
    x[0], x[1] = 0.4, 0.8
    f = problem.evaluate_batch(x)[0]
    assert np.linalg.norm(f) == pytest.approx(1.0)


def test_dtlz3_reduces_to_sphere_when_distance_is_zero():
    dtlz2 = get_problem("dtlz2", 3)
    dtlz3 = get_problem("dtlz3", 3)
    x = np.full(dtlz3.n, 0.5)
    x[0], x[1] = 0.25, 0.75
    assert np.allclose(dtlz3.evaluate_batch(x)[0],
                       dtlz2.evaluate_batch(x)[0])


def test_dtlz4_bias_pushes_to_corner():
    problem = get_problem("dtlz4", 3)
    x = np.full(problem.n, 0.5)
    f = problem.evaluate_batch(x)[0]
    # 0.5**100 is numerically zero, so the point lands on the f1 corner
    assert f[0] == pytest.approx(1.0, abs=1e-8)
    assert abs(f[1]) < 1e-8 and abs(f[2]) < 1e-8


def test_dtlz5_collapses_to_curve():
    problem = get_problem("dtlz5", 4)
    x = np.full(problem.n, 0.5)
    engine = make_engine(5)
    # with zero distance part the objectives depend only on x1
    fs = []
    for _ in range(4):
        x[1], x[2] = engine.uniform(size=2)
        x[0] = 0.3
        fs.append(problem.evaluate_batch(x.copy())[0])
    assert np.allclose(fs[0], fs[1]) and np.allclose(fs[0], fs[3])


def test_dtlz6_distance_minimum_at_zero():
    problem = get_problem("dtlz6", 3)
    x = np.zeros(problem.n)
    x[0] = 0.5
    f = problem.evaluate_batch(x)[0]
    assert np.linalg.norm(f) == pytest.approx(1.0)


def test_dtlz7_known_corner():
    for m in (2, 3, 5):
        problem = get_problem("dtlz7", m)
        x = np.zeros(problem.n)
        f = problem.evaluate_batch(x)[0]
        assert np.allclose(f[:-1], 0.0)
        assert f[-1] == pytest.approx(2.0 * m)


def test_scaled_families_multiply_objectives():
    for i in (1, 2, 3, 4):
        base = get_problem(f"dtlz{i}", 3)
        scaled = get_problem(f"sdtlz{i}", 3)
        engine = make_engine(40 + i)
        x = engine.uniform(size=(5, base.n))
        factors = 10.0 ** np.arange(3)
        assert base.factors == 1.0
        assert np.array_equal(scaled.factors, factors)
        assert np.allclose(scaled.evaluate_batch(x),
                           base.evaluate_batch(x) * factors)


def test_inverted_dtlz1_identity():
    base = get_problem("dtlz1", 3)
    inv = get_problem("idtlz1", 3)
    x = np.full(base.n, 0.5)
    x[0], x[1] = 0.2, 0.9
    g = 0.0
    assert np.allclose(inv.evaluate_batch(x)[0],
                       0.5 * (1.0 + g) - base.evaluate_batch(x)[0])


def test_inverted_dtlz2_identity():
    base = get_problem("dtlz2", 4)
    inv = get_problem("idtlz2", 4)
    engine = make_engine(77)
    x = engine.uniform(size=base.n)
    g = np.sum((x[3:] - 0.5) ** 2)
    assert np.allclose(inv.evaluate_batch(x)[0],
                       (1.0 + g) - base.evaluate_batch(x)[0])


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_pareto_sample_box_matches_stored_bounds(name, m):
    problem = get_problem(name, m)
    pf = problem.sample_pf(1500, make_engine(m))
    assert pf.shape == (1500, m)
    assert np.allclose(pf.min(axis=0), problem.true_ideal, atol=1e-9)
    assert np.allclose(pf.max(axis=0), problem.true_nadir, atol=1e-9)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_pareto_sample_is_mutually_nondominated(name):
    problem = get_problem(name, 3)
    pf = problem.sample_pf(600, make_engine(2))
    assert nondominated_mask(pf).all()


@pytest.mark.parametrize("name", ["dtlz5", "dtlz6"])
@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("count", [300, 1000, 10000])
def test_degenerate_curve_pool_has_no_dominated_row(name, m, count,
                                                    monkeypatch):
    # the sampler thins its pool unfiltered; f_1 falling and f_m rising
    # row by row make every row better than each later one in f_1 and worse
    # in f_m, so no row dominates another
    pools = []

    def capture(pool, k):
        pools.append(pool)
        return pool[:k]

    monkeypatch.setattr(problems, "farthest_point_subsample", capture)
    get_problem(name, m).sample_pf(count, make_engine(1))
    (pool,) = pools
    assert pool.shape == (_pf_pool_size(count), m)
    assert np.all(np.diff(pool[:, 0]) < 0)
    assert np.all(np.diff(pool[:, -1]) > 0)


@pytest.mark.parametrize("name,m", [("dtlz2", 3), ("dtlz5", 3),
                                    ("idtlz2", 3)])
def test_pareto_samples_lie_on_known_surface(name, m):
    problem = get_problem(name, m)
    pf = problem.sample_pf(400, make_engine(8))
    if name == "dtlz2":
        assert np.allclose(np.linalg.norm(pf, axis=1), 1.0)
    elif name == "dtlz5":
        assert np.allclose(np.linalg.norm(pf, axis=1), 1.0)
        # curve constraint: first two coordinates are equal on the g=0 curve
        assert np.allclose(pf[:, 0], pf[:, 1] * np.tan(np.pi / 4), atol=1e-9)
    else:
        assert np.allclose(np.linalg.norm(1.0 - pf, axis=1), 1.0)


@pytest.mark.parametrize("name,count", [
    ("dtlz1", 100000), ("dtlz2", 100000), ("sdtlz3", 100000),
    ("idtlz2", 100000), ("dtlz5", 20000), ("dtlz6", 20000),
    ("dtlz7", 20000),
])
def test_large_sample_box_convergence(name, count):
    problem = get_problem(name, 3)
    pf = problem.sample_pf(count, make_engine(1))
    span = problem.true_nadir - problem.true_ideal
    low_err = np.abs(pf.min(axis=0) - problem.true_ideal) / span
    high_err = np.abs(pf.max(axis=0) - problem.true_nadir) / span
    assert np.all(low_err < 1e-2) and np.all(high_err < 1e-2)


def test_dtlz5_nadir_closed_form():
    for m in (2, 3, 4, 5):
        problem = get_problem("dtlz5", m)
        if m == 2:
            expected = np.array([1.0, 1.0])
        else:
            head = [2.0 ** (-(m - 2) / 2.0)] * 2
            tail = [2.0 ** (-(m - j) / 2.0) for j in range(3, m + 1)]
            expected = np.array(head + tail)
        assert np.allclose(problem.true_nadir, expected)


def test_dtlz7_bounds_use_front_constants():
    problem = get_problem("dtlz7", 3)
    assert np.allclose(problem.true_ideal[:2], 0.0)
    assert problem.true_nadir[-1] == pytest.approx(6.0)
    assert problem.true_nadir[0] == pytest.approx(0.8594008570145305)


@pytest.mark.parametrize("m", range(2, 11))
@pytest.mark.parametrize("rows", [1, 100, 10000])
def test_objective_shapes_match_reference_bytes(m, rows):
    rng = np.random.default_rng(1000 * m + rows)
    pos = rng.random((rows, m - 1))
    pos[rng.random(pos.shape) < 0.05] = 0.0
    pos[rng.random(pos.shape) < 0.05] = 1.0
    g = rng.random(rows) * rng.choice([0.0, 1.0, 100.0], size=rows)
    theta = pos * np.pi / 2.0
    assert (_linear_objectives(pos, g).tobytes()
            == oracle_linear_objectives(pos, g).tobytes())
    assert (_spherical_objectives(theta, g).tobytes()
            == oracle_spherical_objectives(theta, g).tobytes())
