"""Crossover, mutation, and differential variation operators."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (oracle_de_donor_slots, oracle_de_rand_1,
                      oracle_polynomial_mutation,
                      oracle_polynomial_mutation_batch)
from prefnorm.core import make_engine
from prefnorm.variation import (de_rand_1, de_rand_1_draws,
                                polynomial_mutation,
                                polynomial_mutation_batch,
                                polynomial_mutation_draws, sbx_batch)

LOWER2 = np.zeros(2)
UPPER2 = np.ones(2)


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
    do, u = polynomial_mutation_draws((2,), 1.0, engine)
    out = polynomial_mutation(np.array([0.5, 0.5]), LOWER2, UPPER2, do, u)
    assert out.shape == (2,)
    assert np.all(out != 0.5)


def _de_trial(target, xs, nb, engine, f_scale=0.5, crossover_rate=1.0):
    """One DE/rand/1 trial of ``target`` from a one-row block of draws."""
    own = (nb == target)[None, :]
    slots, cross = de_rand_1_draws(own, xs.shape[1], crossover_rate, engine)
    return de_rand_1(target, xs, nb[slots[0]], cross[0], f_scale)


def test_de_rand_1_linear_combination_with_full_crossover():
    xs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                   [0.5, 0.5]])
    nb = np.array([0, 1, 2, 3, 4])
    engine = make_engine(53)
    trial = _de_trial(0, xs, nb, engine, f_scale=0.5, crossover_rate=1.0)
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
        trial = _de_trial(0, xs, nb, make_engine(seed))
        # donors are all zero vectors, so the target never leaks through
        assert np.allclose(trial, 0.0)


def test_de_rand_1_needs_three_donors():
    xs = np.zeros((3, 2))
    with pytest.raises(ValueError):
        _de_trial(0, xs, np.array([0, 1, 2]), make_engine(1))


def test_de_rand_1_partial_crossover_keeps_target_coordinates():
    engine = make_engine(59)
    xs = engine.uniform(size=(10, 8))
    nb = np.arange(10)
    trial = _de_trial(2, xs, nb, engine, crossover_rate=0.0)
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
    do, u = polynomial_mutation_draws(x.shape, prob, make_engine(seed))
    with np.errstate(all="ignore"):
        # each row of a block, as a trial takes it, and the whole block
        for rows in [np.s_[i] for i in range(x.shape[0])] + [np.s_[:]]:
            got = polynomial_mutation(x[rows], lower, upper, do[rows],
                                      u[rows], eta)
            want = oracle_polynomial_mutation(x[rows], lower, upper,
                                              do[rows], u[rows], eta)
            assert got.tobytes() == want.tobytes()


@st.composite
def _de_case(draw):
    pop, cols = draw(st.integers(3, 12)), draw(st.integers(1, 6))
    t_size = draw(st.integers(1, pop))
    # one neighbourhood per target; some may lack their own target
    nbs = [draw(st.permutations(range(pop)))[:t_size] for _ in range(pop)]
    return (_gene_matrix(draw, pop, cols), np.array(nbs, dtype=np.int64),
            draw(st.one_of(st.just(0.5), st.floats(0.0, 2.0))),
            draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
            draw(st.integers(0, 2**32 - 1)))


@given(_de_case())
@settings(max_examples=200, deadline=None)
def test_de_rand_1_matches_reference_bytes(case):
    xs, nbs, f_scale, rate, seed = case
    pop, cols = xs.shape
    own = nbs == np.arange(pop)[:, None]
    got_engine, want_engine = make_engine(seed), make_engine(seed)
    try:
        slots, cross = de_rand_1_draws(own, cols, rate, got_engine)
    except ValueError as exc:
        assert "3 distinct" in str(exc)
        with pytest.raises(ValueError, match="3 distinct"):
            for i in range(pop):
                oracle_de_donor_slots(np.zeros(nbs.shape[1]), nbs[i], i)
        return
    # the same three blocks, read row by row
    keys = want_engine.random(nbs.shape)
    cross_draws = want_engine.random((pop, cols))
    forced = want_engine.integers(cols, size=pop)
    assert got_engine.bit_generator.state == want_engine.bit_generator.state
    for i in range(pop):
        want_slots = oracle_de_donor_slots(keys[i], nbs[i], i)
        assert slots[i].tolist() == want_slots
        want_cross = cross_draws[i] < rate
        want_cross[forced[i]] = True
        assert cross[i].tobytes() == want_cross.tobytes()
        got = de_rand_1(i, xs, nbs[i][slots[i]], cross[i], f_scale)
        want = oracle_de_rand_1(i, xs, nbs[i][want_slots], want_cross,
                                f_scale)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mu, n", [(40, 11), (100, 12), (101, 14)])
def test_block_trials_match_row_bytes(mu, n):
    # moead-nums builds a generation's trials as one block and rebuilds
    # stale trials in waves, each a sub-block of 1 to mu rows: a row, a
    # random subset and the whole block must give the same genes, byte for
    # byte
    engine = make_engine(mu)
    lower, upper = np.full(n, -1.0), np.full(n, 2.0)
    xs = lower + 3.0 * engine.random((mu, n))
    nbs = np.argsort(engine.random((mu, mu)), axis=1)[:, :20]
    own = nbs == np.arange(mu)[:, None]
    for rate, prob in ((1.0, None), (0.5, 0.5), (0.0, 1.0)):
        slots, cross = de_rand_1_draws(own, n, rate, engine)
        donors = np.take_along_axis(nbs, slots, axis=1)
        do, u = polynomial_mutation_draws((mu, n), prob, engine)
        block = de_rand_1(np.arange(mu), xs, donors.T, cross, 0.9)
        mutated = polynomial_mutation(block.clip(lower, upper),
                                      lower, upper, do, u)
        for i in range(mu):
            row = de_rand_1(i, xs, donors[i].tolist(), cross[i], 0.9)
            assert row.tobytes() == block[i].tobytes()
            row = polynomial_mutation(row.clip(lower, upper),
                                      lower, upper, do[i], u[i])
            assert row.tobytes() == mutated[i].tobytes()
        for size in (1, 2, 17, mu):
            wave = np.sort(engine.choice(mu, size, replace=False))
            sub = de_rand_1(wave, xs, donors[wave].T, cross[wave], 0.9)
            assert sub.tobytes() == block[wave].tobytes()
            sub = polynomial_mutation(sub.clip(lower, upper), lower,
                                      upper, do[wave], u[wave])
            assert sub.tobytes() == mutated[wave].tobytes()


def test_de_rand_1_donors_are_uniform_over_ordered_triples():
    # 4 candidates besides the target give 24 ordered triples; the key
    # sort must reach each about equally often, as choice(replace=False)
    nb = np.arange(5)
    own = np.tile(nb == 2, (6000, 1))
    slots, _ = de_rand_1_draws(own, 1, 1.0, make_engine(61))
    triples, counts = np.unique(slots, axis=0, return_counts=True)
    assert len(triples) == 24
    assert not np.isin(2, triples)
    assert counts.min() > 0.75 * 250 and counts.max() < 1.25 * 250
