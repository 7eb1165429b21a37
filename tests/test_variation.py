"""Crossover, mutation, and differential variation operators."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_de_rand_1, oracle_polynomial_mutation_batch
from prefnorm.core import make_engine
from prefnorm.variation import (de_rand_1, polynomial_mutation,
                                polynomial_mutation_batch, repair_clamp,
                                sbx_batch)

LOWER2 = np.zeros(2)
UPPER2 = np.ones(2)


def test_repair_clamp_projects_to_box():
    x = np.array([-0.5, 0.5, 1.5])
    out = repair_clamp(x, np.zeros(3), np.ones(3))
    assert np.array_equal(out, [0.0, 0.5, 1.0])


def test_sbx_children_stay_in_bounds():
    engine = make_engine(3)
    lower, upper = np.zeros(6), np.ones(6)
    pa = engine.uniform(size=(40, 6))
    pb = engine.uniform(size=(40, 6))
    ca, cb = sbx_batch(pa, pb, lower, upper, engine)
    for child in (ca, cb):
        assert child.shape == pa.shape
        assert np.all(child >= lower) and np.all(child <= upper)


def test_sbx_identical_parents_pass_through():
    engine = make_engine(5)
    p = engine.uniform(size=(10, 4))
    ca, cb = sbx_batch(p, p.copy(), np.zeros(4), np.ones(4), engine)
    assert np.allclose(ca, p) and np.allclose(cb, p)


def test_sbx_pooled_child_mean_matches_parent_midpoint():
    # SBX spreads children symmetrically around the parent midpoint
    engine = make_engine(11)
    pa = np.full((20000, 1), 0.3)
    pb = np.full((20000, 1), 0.7)
    ca, cb = sbx_batch(pa, pb, np.zeros(1), np.ones(1), engine)
    pooled = np.concatenate([ca, cb]).mean()
    assert pooled == pytest.approx(0.5, abs=0.01)


def test_sbx_crossover_prob_zero_copies_parents():
    engine = make_engine(13)
    pa = engine.uniform(size=(15, 3))
    pb = engine.uniform(size=(15, 3))
    ca, cb = sbx_batch(pa, pb, np.zeros(3), np.ones(3), engine,
                       crossover_prob=0.0)
    assert np.array_equal(ca, pa) and np.array_equal(cb, pb)


def test_sbx_is_deterministic_under_seed():
    pa = np.full((8, 3), 0.25)
    pb = np.full((8, 3), 0.75)
    out1 = sbx_batch(pa, pb, np.zeros(3), np.ones(3), make_engine(23))
    out2 = sbx_batch(pa, pb, np.zeros(3), np.ones(3), make_engine(23))
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1])


def test_polynomial_mutation_stays_in_bounds():
    engine = make_engine(29)
    x = engine.uniform(size=(200, 5))
    out = polynomial_mutation_batch(x, np.zeros(5), np.ones(5), engine,
                                    mutation_prob=1.0)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert not np.array_equal(out, x)


def test_polynomial_mutation_prob_zero_is_identity():
    engine = make_engine(31)
    x = engine.uniform(size=(50, 4))
    out = polynomial_mutation_batch(x, np.zeros(4), np.ones(4), engine,
                                    mutation_prob=0.0)
    assert np.array_equal(out, x)


def test_polynomial_mutation_at_bound_moves_inward_only():
    engine = make_engine(37)
    x = np.zeros((4000, 1))
    out = polynomial_mutation_batch(x, np.zeros(1), np.ones(1), engine,
                                    mutation_prob=1.0)
    assert np.all(out >= 0.0)
    assert np.any(out > 0.0)
    x = np.ones((4000, 1))
    out = polynomial_mutation_batch(x, np.zeros(1), np.ones(1), engine,
                                    mutation_prob=1.0)
    assert np.all(out <= 1.0)
    assert np.any(out < 1.0)


def test_polynomial_mutation_mean_step_is_centred():
    engine = make_engine(41)
    x = np.full((40000, 1), 0.5)
    out = polynomial_mutation_batch(x, np.zeros(1), np.ones(1), engine,
                                    mutation_prob=1.0)
    assert out.mean() == pytest.approx(0.5, abs=0.01)


def test_polynomial_mutation_default_rate_is_one_over_n():
    engine = make_engine(43)
    n = 10
    x = np.full((3000, n), 0.5)
    out = polynomial_mutation_batch(x, np.zeros(n), np.ones(n), engine)
    changed = (out != x).mean()
    assert changed == pytest.approx(1.0 / n, abs=0.01)


def test_polynomial_mutation_single_wrapper():
    engine = make_engine(47)
    out = polynomial_mutation(np.array([0.5, 0.5]), LOWER2, UPPER2, engine,
                              mutation_prob=1.0)
    assert out.shape == (2,)


def test_de_rand_1_linear_combination_with_full_crossover():
    xs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                   [0.5, 0.5]])
    nb = np.array([0, 1, 2, 3, 4])
    engine = make_engine(53)
    trial = de_rand_1(0, xs, nb, engine, f_scale=0.5, crossover_rate=1.0)
    # with full crossover the trial is exactly a + 0.5 (b - c) for some
    # distinct a, b, c drawn from the neighbourhood minus the target
    candidates = [xs[i] + 0.5 * (xs[j] - xs[k])
                  for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)
                  for k in (1, 2, 3, 4) if len({i, j, k}) == 3]
    assert any(np.allclose(trial, c) for c in candidates)


def test_de_rand_1_excludes_target_from_donors():
    xs = np.zeros((5, 2))
    xs[0] = [100.0, 100.0]
    nb = np.array([0, 1, 2, 3, 4])
    for seed in range(20):
        trial = de_rand_1(0, xs, nb, make_engine(seed))
        # donors are all zero vectors, so the target never leaks through
        assert np.allclose(trial, 0.0)


def test_de_rand_1_needs_three_donors():
    xs = np.zeros((3, 2))
    with pytest.raises(ValueError):
        de_rand_1(0, xs, np.array([0, 1, 2]), make_engine(1))


def test_de_rand_1_partial_crossover_keeps_target_coordinates():
    engine = make_engine(59)
    xs = engine.uniform(size=(10, 8))
    nb = np.arange(10)
    trial = de_rand_1(2, xs, nb, engine, crossover_rate=0.0)
    # with rate zero only the forced coordinate changes
    diff = trial != xs[2]
    assert diff.sum() == 1


# genes inside and outside the box, on its edges, and the signed zero
_GENE = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -0.25, 1.25]),
                  st.floats(-0.5, 1.5))


def _gene_matrix(draw, rows, cols):
    return np.array(draw(st.lists(_GENE, min_size=rows * cols,
                                  max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


@st.composite
def _mutation_case(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    lower = np.array(draw(st.lists(st.sampled_from([0.0, -1.0, 0.25]),
                                   min_size=cols, max_size=cols)))
    upper = lower + np.array(draw(st.lists(
        st.sampled_from([1.0, 0.5, 2.0]), min_size=cols, max_size=cols)))
    eta = draw(st.one_of(st.sampled_from([0.0, 20.0]), st.floats(0.0, 100.0)))
    prob = draw(st.one_of(st.sampled_from([None, 0.0, 1.0]),
                          st.floats(0.0, 1.0)))
    return (_gene_matrix(draw, rows, cols), lower, upper, eta, prob,
            draw(st.integers(0, 2**32 - 1)))


@given(_mutation_case())
@settings(max_examples=200, deadline=None)
def test_polynomial_mutation_batch_matches_reference_bytes(case):
    x, lower, upper, eta, prob, seed = case
    got_engine, want_engine = make_engine(seed), make_engine(seed)
    with np.errstate(all="ignore"):
        got = polynomial_mutation_batch(x, lower, upper, got_engine, eta, prob)
        want = oracle_polynomial_mutation_batch(x, lower, upper, want_engine,
                                                eta, prob)
    assert got.tobytes() == want.tobytes()
    assert got_engine.bit_generator.state == want_engine.bit_generator.state


@given(_mutation_case())
@settings(max_examples=200, deadline=None)
def test_polynomial_mutation_matches_reference_row_bytes(case):
    x, lower, upper, eta, prob, seed = case
    got_engine, want_engine = make_engine(seed), make_engine(seed)
    with np.errstate(all="ignore"):
        got = polynomial_mutation(x[0], lower, upper, got_engine, eta, prob)
        want = oracle_polynomial_mutation_batch(x[:1], lower, upper,
                                                want_engine, eta, prob)[0]
    assert got.tobytes() == want.tobytes()
    assert got_engine.bit_generator.state == want_engine.bit_generator.state


@st.composite
def _de_case(draw):
    pop, cols = draw(st.integers(3, 12)), draw(st.integers(1, 6))
    nb = draw(st.permutations(range(pop)))[:draw(st.integers(1, pop))]
    return (_gene_matrix(draw, pop, cols), draw(st.integers(0, pop - 1)),
            np.array(nb, dtype=np.int64),
            draw(st.one_of(st.just(0.5), st.floats(0.0, 2.0))),
            draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
            draw(st.integers(0, 2**32 - 1)))


@given(_de_case())
@settings(max_examples=200, deadline=None)
def test_de_rand_1_matches_reference_bytes(case):
    xs, target, nb, f_scale, rate, seed = case
    got_engine, want_engine = make_engine(seed), make_engine(seed)
    try:
        want = oracle_de_rand_1(target, xs, nb, want_engine, f_scale, rate)
    except ValueError:
        with pytest.raises(ValueError, match="3 distinct"):
            de_rand_1(target, xs, nb, got_engine, f_scale, rate)
        return
    got = de_rand_1(target, xs, nb, got_engine, f_scale, rate)
    assert got.tobytes() == want.tobytes()
    assert got_engine.bit_generator.state == want_engine.bit_generator.state
