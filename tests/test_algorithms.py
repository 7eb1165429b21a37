"""Tests for the four optimizers and their selection machinery.

Covers the frozen scalarization values, hand-traced environmental
selection and replacement scenarios, epsilon clearing, the shared runner
contract (budget accounting, determinism, recorder cadence), and light
search-behavior checks on DTLZ2.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (OracleState, oracle_dominates, oracle_epsilon_clear,
                      oracle_epsilon_clear_every_point,
                      oracle_epsilon_matrix, oracle_moead_nums_replacement,
                      oracle_rnsga2_environmental_selection,
                      oracle_run_moead_nums)
from prefnorm import get_problem, make_engine
from prefnorm.algorithms import (AASF_RHO, ALGORITHMS, AlgorithmParams,
                                 _aasf_of_gap, epsilon_clear,
                                 moead_nums_replacement,
                                 rnsga2_environmental_selection, run_nsga2,
                                 run_moead_nums, run_rnsga2,
                                 weighted_ref_distance)
from prefnorm.normalization import KINDS, normalize_value
from prefnorm.problems import problem_names
from prefnorm.ranking import _sq_dists, nondominated_sort

IDENT_LB = np.zeros(2)
IDENT_UB = np.ones(2)
ORIGIN = np.zeros(2)
HALF_W = np.full(2, 0.5)


def select_one(uf, dists, mu, epsilon, z_lb, z_ub, engine):
    """R-NSGA-II's selection on one union, handed over as a block of one:
    the survivors and their levels."""
    keep, levels = rnsga2_environmental_selection(
        uf[None], dists[None], mu, epsilon, z_lb[None], z_ub[None], [engine])
    return keep[0], levels[0, keep[0]]


def aasf(f, z, w, z_lb, z_ub, rho=AASF_RHO):
    """AASF of ``f`` as moead-nums scores it: the normalized gap to ``z``."""
    gap = normalize_value(f, z_lb, z_ub) - normalize_value(z, z_lb, z_ub)
    return _aasf_of_gap(w, gap, rho)


class TestWeightedRefDistance:

    def test_frozen_unit_corner(self):
        d = weighted_ref_distance(np.array([1.0, 0.0]), ORIGIN, HALF_W,
                                  IDENT_LB, IDENT_UB)
        assert d == np.sqrt(0.5)

    def test_zero_at_reference(self):
        z = np.array([0.3, 0.8])
        assert weighted_ref_distance(z, z, HALF_W, IDENT_LB, IDENT_UB) == 0.0

    def test_batch_shape(self):
        objs = np.random.default_rng(0).random((7, 2))
        d = weighted_ref_distance(objs, ORIGIN, HALF_W, IDENT_LB, IDENT_UB)
        assert d.shape == (7,)
        for i in range(7):
            single = weighted_ref_distance(objs[i], ORIGIN, HALF_W,
                                           IDENT_LB, IDENT_UB)
            assert d[i] == pytest.approx(single, rel=1e-15)

    def test_range_scaling_halves_distance(self):
        f = np.array([1.0, 0.5])
        base = weighted_ref_distance(f, ORIGIN, HALF_W, IDENT_LB, IDENT_UB)
        wide = weighted_ref_distance(f, ORIGIN, HALF_W, IDENT_LB,
                                     2.0 * IDENT_UB)
        assert wide == pytest.approx(base / 2.0, rel=1e-12)

    def test_zero_weight_ignores_objective(self):
        w = np.array([1.0, 0.0])
        a = weighted_ref_distance(np.array([0.5, 0.1]), ORIGIN, w,
                                  IDENT_LB, IDENT_UB)
        b = weighted_ref_distance(np.array([0.5, 99.0]), ORIGIN, w,
                                  IDENT_LB, IDENT_UB)
        assert a == b == 0.5


class TestAasf:

    def test_frozen_value(self):
        v = aasf(np.array([0.2, 0.4]), ORIGIN, np.array([1.0, 0.0]),
                 IDENT_LB, IDENT_UB)
        assert v == pytest.approx(0.2000006, rel=1e-12)

    def test_zero_at_reference(self):
        z = np.array([0.4, 0.7])
        assert aasf(z, z, HALF_W, IDENT_LB, IDENT_UB) == 0.0

    def test_augmentation_breaks_weak_ties(self):
        # same max term, but the dominated point has the larger sum
        w = np.array([1.0, 0.0])
        good = aasf(np.array([0.1, 0.5]), ORIGIN, w, IDENT_LB, IDENT_UB)
        bad = aasf(np.array([0.1, 0.9]), ORIGIN, w, IDENT_LB, IDENT_UB)
        assert good < bad

    def test_rho_must_be_positive_effect(self):
        f = np.array([0.2, 0.4])
        w = np.array([1.0, 0.0])
        small = aasf(f, ORIGIN, w, IDENT_LB, IDENT_UB, rho=1e-6)
        large = aasf(f, ORIGIN, w, IDENT_LB, IDENT_UB, rho=1e-2)
        assert large > small

    def test_normalization_applied(self):
        f = np.array([0.2, 0.4])
        w = np.array([1.0, 0.0])
        base = aasf(f, ORIGIN, w, IDENT_LB, IDENT_UB)
        halved = aasf(f, ORIGIN, w, IDENT_LB, 2.0 * IDENT_UB)
        assert halved == pytest.approx(base / 2.0, rel=1e-9)

    def test_minimizer_is_nondominated(self):
        rng = np.random.default_rng(42)
        w = np.full(3, 1.0 / 3.0)
        lb3, ub3 = np.zeros(3), np.ones(3)
        for _ in range(20):
            objs = rng.random((30, 3))
            vals = [aasf(f, np.zeros(3), w, lb3, ub3) for f in objs]
            best = int(np.argmin(vals))
            for j in range(30):
                assert not oracle_dominates(objs[j], objs[best])

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 10])
    def test_block_scores_match_row_bytes(self, m):
        # moead-nums scores a generation's trials as one (mu, T, m) block
        # and each wave of rebuilt trials as a sub-block of 1 to mu rows
        engine = make_engine(m)
        for mu in (40, 100, 101):
            weights = engine.random((mu, m))
            weights /= weights.sum(axis=1, keepdims=True)
            nb_weights = weights[np.argsort(engine.random((mu, mu)),
                                            axis=1)[:, :20]]
            gap = engine.normal(size=(mu, m))
            gap[::7, 0] = 0.0
            block = _aasf_of_gap(nb_weights, gap[:, None], AASF_RHO)
            assert block.shape == (mu, 20)
            for i in range(mu):
                row = _aasf_of_gap(nb_weights[i], gap[i], AASF_RHO)
                assert row.tobytes() == block[i].tobytes()
            for size in (1, 2, 17, mu):
                wave = np.sort(engine.choice(mu, size, replace=False))
                sub = _aasf_of_gap(nb_weights[wave], gap[wave][:, None],
                                   AASF_RHO)
                assert sub.tobytes() == block[wave].tobytes()


class TestEpsilonClear:

    def test_partition(self):
        pts = np.random.default_rng(3).random((40, 2))
        kept, reserve = epsilon_clear(pts, 0.2, make_engine(9))
        assert sorted(kept.tolist() + reserve.tolist()) == list(range(40))

    def test_survivors_spread(self):
        pts = np.random.default_rng(4).random((60, 2))
        eps = 0.15
        kept, _ = epsilon_clear(pts, eps, make_engine(10))
        sp = pts[kept]
        for i in range(len(sp)):
            for j in range(i + 1, len(sp)):
                assert np.linalg.norm(sp[i] - sp[j]) >= eps

    def test_exact_epsilon_distance_survives(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0]])
        kept, reserve = epsilon_clear(pts, 0.1, make_engine(0))
        assert kept.size == 2 and reserve.size == 0

    def test_zero_epsilon_keeps_all(self):
        pts = np.random.default_rng(5).random((25, 3))
        kept, reserve = epsilon_clear(pts, 0.0, make_engine(1))
        assert kept.size == 25 and reserve.size == 0

    def test_duplicates_one_per_site(self):
        pts = np.array([[0.2, 0.2]] * 4 + [[0.9, 0.9]] * 3)
        kept, reserve = epsilon_clear(pts, 0.01, make_engine(2))
        assert kept.size == 2
        assert reserve.size == 5
        sites = {tuple(pts[k]) for k in kept}
        assert sites == {(0.2, 0.2), (0.9, 0.9)}

    def test_random_order_varies_survivor(self):
        pts = np.array([[0.0, 0.0], [0.001, 0.0], [1.0, 1.0]])
        winners = set()
        for seed in range(50):
            kept, _ = epsilon_clear(pts, 0.01, make_engine(seed))
            winners.add(int(np.intersect1d(kept, [0, 1])[0]))
        assert winners == {0, 1}

    def test_empty_input(self):
        kept, reserve = epsilon_clear(np.empty((0, 2)), 0.1, make_engine(0))
        assert kept.size == 0 and reserve.size == 0

    @given(n=st.integers(0, 40), m=st.integers(1, 10),
           step=st.sampled_from([0.05, 0.1, 1e-3]),
           epsilon=st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.3]),
                             st.floats(0.0, 1.0)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_bytes(self, n, m, step, epsilon, seed):
        # points on a coarse grid give duplicates and pairs at exactly
        # epsilon; the signed zero must not count as a distinct site
        rng = np.random.default_rng(seed)
        pts = rng.integers(-2, 4, size=(n, m)) * step
        pts[rng.random(pts.shape) < 0.1] = -0.0
        got_engine, want_engine = make_engine(seed), make_engine(seed)
        got = epsilon_clear(pts, epsilon, got_engine)
        want = oracle_epsilon_clear(pts, epsilon, want_engine)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert (got_engine.bit_generator.state
                == want_engine.bit_generator.state)

    @pytest.mark.parametrize("epsilon", [0.0, 0.001, 0.3])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_crowded_walk_matches_every_point_walk(self, m, epsilon):
        # walking only the points with a neighbour within epsilon keeps
        # the survivors, the reserve (bytes and dtype) and the engine state
        # of the walk over every point
        rng = np.random.default_rng([m, int(epsilon * 1000)])
        reserved = 0
        for trial in range(60):
            n = int(rng.integers(0, 100))
            if trial % 2:
                # a grid of spacing epsilon: pairs at exactly epsilon
                pts = rng.integers(0, 3, size=(n, m)) * (epsilon or 1e-3)
            else:
                scale = rng.choice([1e-3, 1e-2, 0.3, 1.0])
                pts = rng.random((n, m)) * scale
            if n:
                pts[rng.random(n) < 0.2] = pts[rng.integers(n)]
            seed = int(rng.integers(2**32))
            got_engine, want_engine = make_engine(seed), make_engine(seed)
            got = epsilon_clear(pts, epsilon, got_engine)
            want = oracle_epsilon_clear_every_point(pts, epsilon,
                                                    want_engine)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert (got_engine.bit_generator.state
                    == want_engine.bit_generator.state)
            reserved += want[1].size
        # at epsilon 0 not even duplicates are closer than epsilon
        assert (reserved > 0) == (epsilon > 0)

    @given(n=st.integers(1, 130), m=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_close_matrix_matches_reference_bytes(self, n, m, seed):
        # epsilon is one of the pair distances, so the comparison turns on
        # the last bit of that pair's squared distance
        rng = np.random.default_rng(seed)
        pts = rng.random((n, m)) * 10.0 ** rng.integers(-3, 1, size=(n, m))
        pts[rng.random(n) < 0.1] = pts[0]
        pts[rng.random((n, m)) < 0.1] = -0.0
        i, j = rng.integers(0, n, size=2)
        epsilon = float(np.sqrt(np.sum((pts[i] - pts[j]) ** 2)))
        for eps in (epsilon, np.nextafter(epsilon, np.inf), 0.1):
            got = _sq_dists(pts, pts) < eps * eps
            assert got.tobytes() == oracle_epsilon_matrix(pts, eps).tobytes()


class TestRnsga2Selection:
    """Hand-traced scenarios on a fixed six-member union.

    Points: A=(0,1) B=(1,0) C=(0.4,0.4) form level 0, D=(0.9,0.9) and
    E=(2,0.05) level 1, F=(3,3) level 2.  With w=(0.5,0.5) and z at the
    origin the distances are A=B=sqrt(0.5), C=0.4, D=0.9, E~1.4147, F=3.
    """

    UF = np.array([[0.0, 1.0], [1.0, 0.0], [0.4, 0.4],
                   [0.9, 0.9], [2.0, 0.05], [3.0, 3.0]])

    def dists(self):
        return weighted_ref_distance(self.UF, ORIGIN, HALF_W,
                                     IDENT_LB, IDENT_UB)

    def test_whole_levels_then_best_distance(self):
        # level 0 fits wholly; the one remaining slot goes to D, the
        # level-1 member closest to the reference point.
        keep, _ = select_one(self.UF, self.dists(), 4, 1e-6, IDENT_LB,
                             IDENT_UB, make_engine(5))
        assert keep.tolist() == [0, 1, 2, 3]

    def test_distance_order_with_position_tiebreak(self):
        # level 0 overflows: C has the smallest distance, then A and B
        # tie and the earlier union position wins.
        keep, _ = select_one(self.UF, self.dists(), 2, 1e-6, IDENT_LB,
                             IDENT_UB, make_engine(5))
        assert keep.tolist() == [2, 0]

    def test_clearing_drops_one_duplicate(self):
        uf = np.array([[0.3, 0.3], [0.3, 0.3], [0.0, 1.0], [1.0, 0.0]])
        dists = weighted_ref_distance(uf, ORIGIN, HALF_W,
                                      IDENT_LB, IDENT_UB)
        seen = set()
        for seed in range(10):
            keep, _ = select_one(uf, dists, 3, 0.1, IDENT_LB, IDENT_UB,
                                 make_engine(seed))
            assert keep.size == 3
            dup = [k for k in keep if k in (0, 1)]
            assert len(dup) == 1
            assert {2, 3} <= set(keep.tolist())
            seen.add(dup[0])
        assert seen == {0, 1}

    def test_reserve_refills_room(self):
        # every level-0 member sits inside one epsilon cluster, so the
        # reserve must refill the remaining slots instead of skipping
        # ahead to the next level.
        uf = np.array([[0.30, 0.30], [0.30, 0.31], [0.31, 0.30],
                       [5.0, 5.0]])
        dists = weighted_ref_distance(uf, ORIGIN, HALF_W,
                                      IDENT_LB, IDENT_UB)
        for seed in range(10):
            keep, _ = select_one(uf, dists, 3, 0.5, IDENT_LB, IDENT_UB,
                                 make_engine(seed))
            assert sorted(keep.tolist()) == [0, 1, 2]

    def test_never_skips_a_level(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            uf = rng.random((24, 2))
            dists = weighted_ref_distance(uf, ORIGIN, HALF_W,
                                          IDENT_LB, IDENT_UB)
            keep, kept_rank = select_one(
                uf, dists, 10, 0.05, IDENT_LB, IDENT_UB, make_engine(trial))
            assert keep.size == 10
            assert len(set(keep.tolist())) == 10
            rank = nondominated_sort(uf[None])[0]
            dropped = sorted(set(range(24)) - set(keep.tolist()))
            assert rank[keep].max() <= rank[dropped].min()
            # the reported levels are the survivors' union levels, and
            # also their levels when the survivors are sorted alone
            assert np.array_equal(kept_rank, rank[keep])
            assert np.array_equal(kept_rank,
                                  nondominated_sort(uf[keep][None])[0])

    @given(n=st.integers(1, 120), m=st.integers(2, 5), data=st.data(),
           epsilon=st.sampled_from([0.0, 0.05, 0.2, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bytes(self, n, m, data, epsilon, seed):
        # quantized objectives and distances give duplicate rows, large
        # levels and distance ties, which the position must break
        rng = np.random.default_rng(seed)
        uf = rng.integers(0, 5, size=(n, m)) * 0.25
        uf[rng.random(n) < 0.2] = uf[0]
        dists = rng.integers(0, 4, size=n) * 0.5
        dists[rng.random(n) < 0.1] = -0.0
        mu = data.draw(st.integers(1, n))
        lb, ub = np.zeros(m), np.ones(m)
        got_engine, want_engine = make_engine(seed), make_engine(seed)
        got = select_one(uf, dists, mu, epsilon, lb, ub, got_engine)
        want = oracle_rnsga2_environmental_selection(uf, dists, mu, epsilon,
                                                     lb, ub, want_engine)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert (got_engine.bit_generator.state
                == want_engine.bit_generator.state)

    def test_identity_when_union_fits(self):
        keep, _ = select_one(self.UF, self.dists(), 6, 1e-6, IDENT_LB,
                             IDENT_UB, make_engine(0))
        assert sorted(keep.tolist()) == list(range(6))


class TestMoeadReplacement:
    """Hand-traced five-subproblem scenario.

    Evenly spread weights over m=2, incumbents on the f1+f2=1 line, and
    a trial at (0.25, 0.25) that beats the incumbents of subproblems
    1, 2 and 3 but not the edge subproblems 0 and 4.
    """

    WEIGHTS = np.array([[1.0, 0.0], [0.75, 0.25], [0.5, 0.5],
                        [0.25, 0.75], [0.0, 1.0]])
    FS = np.array([[0.2, 0.8], [0.4, 0.6], [0.5, 0.5],
                   [0.6, 0.4], [0.8, 0.2]])
    NB = np.arange(5)

    def call(self, trial, max_replace, seed):
        trial_vals = aasf(np.asarray(trial, dtype=float), ORIGIN,
                          self.WEIGHTS[self.NB], IDENT_LB, IDENT_UB)
        incumbent = aasf(self.FS, ORIGIN, self.WEIGHTS, IDENT_LB,
                         IDENT_UB)[self.NB]
        order = make_engine(seed).permutation(self.NB.size)
        return self.NB[moead_nums_replacement(trial_vals, incumbent,
                                              max_replace, order)]

    def test_winning_set(self):
        for seed in range(5):
            rep = self.call([0.25, 0.25], 5, seed)
            assert sorted(rep.tolist()) == [1, 2, 3]

    def test_cap_limits_count(self):
        for seed in range(5):
            rep = self.call([0.25, 0.25], 2, seed)
            assert rep.size == 2
            assert set(rep.tolist()) <= {1, 2, 3}

    def test_cap_one(self):
        for seed in range(5):
            rep = self.call([0.25, 0.25], 1, seed)
            assert rep.size == 1
            assert rep[0] in (1, 2, 3)

    def test_worse_everywhere_replaces_nothing(self):
        assert self.call([10.0, 10.0], 5, 0).size == 0

    def test_equal_incumbent_replaces_nothing(self):
        # replacement needs a strict improvement, a duplicate of an
        # incumbent never wins
        assert self.call([0.5, 0.5], 5, 0).size == 0

    def test_uses_normalized_objectives(self):
        # raw objectives would let the trial win; with the first range
        # stretched to 10 the normalized comparison rejects it
        z_ub = np.array([10.0, 1.0])
        w = np.array([[0.5, 0.5]])
        trial_vals = aasf(np.array([1.0, 0.9]), ORIGIN, w, IDENT_LB, z_ub)
        incumbent = aasf(np.array([[2.0, 0.1]]), ORIGIN, w, IDENT_LB, z_ub)
        rep = moead_nums_replacement(trial_vals, incumbent, 5, np.arange(1))
        assert rep.size == 0

    @staticmethod
    def assert_setup_rejects(params, fragment):
        # checked at run set-up, before the engine is drawn from
        engine = make_engine(0)
        before = engine.bit_generator.state
        with pytest.raises(ValueError, match=fragment):
            run_moead_nums(get_problem("dtlz2", 2), ORIGIN, ["no"], 12, 240,
                           [engine], params)
        assert engine.bit_generator.state == before

    def test_bad_rho_raises(self):
        self.assert_setup_rejects(AlgorithmParams(rho=0.0),
                                  "rho must be positive")

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_raises(self, cap):
        self.assert_setup_rejects(AlgorithmParams(max_replace=cap),
                                  "max_replace must be >= 1")

    @pytest.mark.parametrize("t_size", [1, 2, 3])
    def test_neighbourhood_below_four_raises(self, t_size):
        self.assert_setup_rejects(AlgorithmParams(neighborhood_t=t_size),
                                  "at least 4 slots")


def one_moead_run(problem, z, kind, mu, budget, engine, params, recorder):
    """``run_moead_nums`` on a list of one run."""
    (final,) = run_moead_nums(problem, z, [kind], mu, budget, [engine],
                              params, recorder)
    return final


def one_run_log(log):
    """A cell's recorder for a cell of one run, logging its only run."""
    def recorder(evals, fs, state):
        assert len(fs) == 1
        log.append((evals, fs[0].tobytes(), state.z_lb[0].tobytes(),
                    state.z_ub[0].tobytes()))
    return recorder


class TestMoeadByteIdentity:
    """The block-drawing trial loop against the plain reference loop."""

    @given(m=st.integers(2, 5), pop=st.integers(4, 20),
           t_frac=st.floats(0.0, 1.0), max_replace=st.integers(1, 5),
           bounds=st.sampled_from(["identity", "random", "flat"]),
           tie=st.booleans(), key_ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_replacement_matches_reference_bytes(self, m, pop, t_frac,
                                                 max_replace, bounds, tie,
                                                 key_ties, seed):
        rng = np.random.default_rng(seed)
        fs = rng.random((pop, m))
        weights = rng.random((pop, m))
        weights /= weights.sum(axis=1, keepdims=True)
        nb = rng.permutation(pop)[:max(1, round(t_frac * pop))]
        z = rng.random(m) - 0.25
        # a tied trial duplicates one incumbent of the neighbourhood
        trial_f = fs[nb[0]].copy() if tie else rng.random(m)
        state = OracleState("no", m)
        if bounds != "identity":
            state.z_lb = rng.random(m) - 0.5
            state.z_ub = (state.z_lb if bounds == "flat"
                          else state.z_lb + rng.random(m) * 3.0)
        # visiting-order keys as the run draws them, or with ties
        keys = (rng.integers(0, 3, nb.size).astype(float) if key_ties
                else rng.random(nb.size))
        trial_vals = aasf(trial_f, z, weights[nb], state.z_lb, state.z_ub)
        incumbent = aasf(fs, z, weights, state.z_lb, state.z_ub)
        got = nb[moead_nums_replacement(trial_vals, incumbent[nb],
                                        max_replace,
                                        keys.argsort(kind="stable"))]
        want = oracle_moead_nums_replacement(trial_f, fs, weights, nb, z,
                                             state, max_replace, keys)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", problem_names())
    def test_runs_match_reference_loop(self, name):
        for m in (2, 3, 5):
            problem = get_problem(name, m)
            z = problem.true_ideal + 0.4 * (problem.true_nadir
                                            - problem.true_ideal)
            for kind in KINDS:
                logs = ([], [])
                seed = 1000 * m + KINDS.index(kind)
                got_engine, want_engine = make_engine(seed), make_engine(seed)
                got = one_moead_run(problem, z, kind, 12, 240, got_engine,
                                    AlgorithmParams(), one_run_log(logs[0]))
                want = oracle_run_moead_nums(problem, z, kind, 12, 240,
                                             want_engine, AlgorithmParams(),
                                             one_run_log(logs[1]))
                assert len(logs[0]) == 20
                assert logs[0] == logs[1], (m, kind)
                assert got.tobytes() == want.tobytes()
                assert (got_engine.bit_generator.state
                        == want_engine.bit_generator.state)


class TestMoeadStaleTrials:
    """Trials rebuilt because an earlier trial replaced a row they read."""

    @pytest.mark.parametrize("de_cr", [0.5, 0.0])
    def test_partial_crossover_runs_match_reference_loop(self, de_cr):
        # masks that leave genes to the target make a replaced target stale
        # too, and mu above the neighbourhood size leaves trials whose
        # target or donors no earlier trial touched
        params = AlgorithmParams(de_cr=de_cr)
        mu = 40
        assert mu > params.neighborhood_t
        for name in problem_names():
            for m in (2, 3, 5):
                problem = get_problem(name, m)
                z = problem.true_ideal + 0.4 * (problem.true_nadir
                                                - problem.true_ideal)
                for kind in ("pp", "ba"):
                    seed = 10 * m + KINDS.index(kind)
                    runs = []
                    for run in (one_moead_run, oracle_run_moead_nums):
                        log, engine = [], make_engine(seed)
                        final = run(problem, z, kind, mu, 6 * mu, engine,
                                    params, one_run_log(log))
                        runs.append((log, final.tobytes(),
                                     engine.bit_generator.state))
                    assert len(runs[0][0]) == 6
                    assert runs[0] == runs[1], (name, m, kind)


class CountingEngine:
    """A random generator that counts the calls made on it."""

    def __init__(self, engine):
        self.engine = engine
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.engine, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestMoeadBlockDraws:

    @pytest.mark.parametrize("kind", ["pp", "ba"])
    def test_generation_engine_calls_do_not_grow_with_mu(self, kind):
        # every draw of a generation happens before its first trial, in a
        # fixed number of blocks, so no engine call sits in the trial loop
        per_generation = {}
        for mu in (12, 100):
            engine = CountingEngine(make_engine(mu))
            marks = []
            run_moead_nums(get_problem("dtlz2", 3), np.full(3, 0.5), [kind],
                           mu, 5 * mu, [engine], AlgorithmParams(),
                           lambda evals, fs, state:
                           marks.append(engine.calls))
            per_generation[mu] = set(np.diff(marks).tolist())
        assert per_generation == {12: {5}, 100: {5}}


class TestAlgorithmRegistry:

    def test_identifiers(self):
        assert set(ALGORITHMS) == {"nsga2", "rnsga2", "r2nsga2",
                                   "moead-nums"}

    def test_default_params(self):
        p = AlgorithmParams()
        assert p.crossover_prob == 1.0
        assert p.sbx_eta == 30.0
        assert p.pm_eta == 20.0
        assert p.mutation_prob is None
        assert p.epsilon_clear == 0.001
        assert p.delta == 0.3
        assert p.tau == 0.3
        assert p.de_f == 0.5
        assert p.de_cr == 1.0
        assert p.neighborhood_t == 20
        assert p.max_replace == 2
        assert p.rho == 1e-6


class TestRunnerContract:

    Z2 = np.array([0.5, 0.5])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_recorder_cadence_and_shapes(self, name):
        problem = get_problem("dtlz2", 2)
        records = []

        def recorder(evals, fs, state):
            records.append((evals, fs.shape, state.z_lb.copy(),
                            state.z_ub.copy()))

        (fs,) = ALGORITHMS[name](problem, self.Z2, ["ba"], 8, 100,
                                 [make_engine(3)], recorder=recorder)
        assert fs.shape == (8, 2)
        evals_seen = [r[0] for r in records]
        assert evals_seen == list(range(8, 97, 8))
        for _, shape, zl, zu in records:
            assert shape == (1, 8, 2)
            assert zl.shape == (1, 2) and zu.shape == (1, 2)
            assert np.all(np.isfinite(zl)) and np.all(np.isfinite(zu))
            assert np.all(zl <= zu + 1e-12)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_deterministic_under_seed(self, name):
        problem = get_problem("dtlz2", 2)
        (a,) = ALGORITHMS[name](problem, self.Z2, ["pp"], 8, 120,
                                [make_engine(7)])
        (b,) = ALGORITHMS[name](problem, self.Z2, ["pp"], 8, 120,
                                [make_engine(7)])
        (c,) = ALGORITHMS[name](problem, self.Z2, ["pp"], 8, 120,
                                [make_engine(8)])
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("kind", ["pp", "bp", "ba", "no"])
    def test_all_normalization_kinds_run(self, name, kind):
        problem = get_problem("sdtlz2", 2)
        z = np.array([0.8, 8.0])
        (fs,) = ALGORITHMS[name](problem, z, [kind], 8, 64,
                                 [make_engine(1)])
        assert fs.shape == (8, 2)
        assert np.all(np.isfinite(fs))

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_population_below_twice_m_raises(self, name):
        problem = get_problem("dtlz2", 4)
        with pytest.raises(ValueError, match="2m"):
            ALGORITHMS[name](problem, np.full(4, 0.5), ["no"], 6, 600,
                             [make_engine(0)])

    @pytest.mark.parametrize("name", ["nsga2", "rnsga2", "r2nsga2"])
    def test_odd_population_raises_for_ga(self, name):
        problem = get_problem("dtlz2", 2)
        with pytest.raises(ValueError, match="even"):
            ALGORITHMS[name](problem, self.Z2, ["no"], 9, 90,
                             [make_engine(0)])

    def test_odd_population_fine_for_decomposition(self):
        problem = get_problem("dtlz2", 2)
        (fs,) = ALGORITHMS["moead-nums"](problem, self.Z2, ["no"], 9, 45,
                                         [make_engine(0)])
        assert fs.shape == (9, 2)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_kinds_and_engines_pair_up(self, name):
        problem = get_problem("dtlz2", 2)
        with pytest.raises(ValueError, match="2 kinds and 1 engines"):
            ALGORITHMS[name](problem, self.Z2, ["no", "ba"], 8, 80,
                             [make_engine(0)])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_budget_below_population_raises(self, name):
        problem = get_problem("dtlz2", 2)
        with pytest.raises(ValueError, match="budget"):
            ALGORITHMS[name](problem, self.Z2, ["no"], 8, 4,
                             [make_engine(0)])

    def test_default_mutation_rate_is_one_over_n(self):
        problem = get_problem("dtlz2", 2)

        def run(params):
            return run_rnsga2(problem, self.Z2, ["no"], 8, 80,
                              [make_engine(0)], params=params)[0]

        explicit = AlgorithmParams(mutation_prob=1.0 / problem.n)
        assert np.array_equal(run(None), run(explicit))


class TestSearchBehavior:

    def test_nsga2_covers_dtlz2_front(self):
        problem = get_problem("dtlz2", 2)
        (fs,) = run_nsga2(problem, np.zeros(2), ["no"], 100, 50000,
                          [make_engine(11)])
        norms = np.linalg.norm(fs, axis=1)
        assert np.all(norms <= 1.05)
        assert np.all(fs.min(axis=0) <= 0.05)
        assert np.all(fs.max(axis=0) >= 0.95)
        assert np.all(fs.max(axis=0) <= 1.05)

    @pytest.mark.parametrize("name,mean_tol,max_tol", [
        ("rnsga2", 0.15, 0.35),
        ("r2nsga2", 0.10, 0.25),
        ("moead-nums", 0.05, 0.25),
    ])
    def test_preference_algorithms_focus_near_z(self, name, mean_tol,
                                                max_tol):
        problem = get_problem("dtlz2", 2)
        z = np.full(2, np.sqrt(0.5))
        (fs,) = ALGORITHMS[name](problem, z, ["ba"], 100, 10000,
                                 [make_engine(1)])
        d = np.linalg.norm(fs - z, axis=1)
        assert d.mean() < mean_tol
        assert d.max() < max_tol

    def test_moead_reaches_front(self):
        problem = get_problem("dtlz2", 2)
        z = np.full(2, np.sqrt(0.5))
        (fs,) = ALGORITHMS["moead-nums"](problem, z, ["ba"], 100, 10000,
                                         [make_engine(2)])
        norms = np.linalg.norm(fs, axis=1)
        assert np.all(norms <= 1.01)
