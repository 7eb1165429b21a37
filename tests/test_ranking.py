"""Dominance relations, non-dominated sorting, crowding, r-dominance."""
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prefnorm.core import make_engine
from prefnorm.ranking import (_all_le, _sq_dists, crowding_distance,
                              domination_matrix, fronts_from_matrix,
                              nondominated_mask, nondominated_sort,
                              r_domination_matrix)

from conftest import (oracle_dominates, oracle_fronts_from_matrix,
                      oracle_nondominated_mask, oracle_r_dominance,
                      oracle_sort, random_objs)


def pair_dominates(a, b) -> bool:
    """Pareto dominance of a over b, read off the pairwise matrix."""
    return bool(domination_matrix(np.array([a, b]))[0, 1])


def test_dominates_basic_cases():
    assert pair_dominates([0.0, 0.0], [1.0, 1.0])
    assert pair_dominates([0.0, 1.0], [0.0, 2.0])
    assert not pair_dominates([0.0, 1.0], [1.0, 0.0])
    assert not pair_dominates([1.0, 1.0], [1.0, 1.0])


def test_weak_dominance_allows_equality():
    def pair_weakly_dominates(a, b):
        return bool(_all_le(np.array([a]), np.array([b]))[0, 0])

    assert pair_weakly_dominates([1.0, 1.0], [1.0, 1.0])
    assert pair_weakly_dominates([0.0, 1.0], [1.0, 1.0])
    assert not pair_weakly_dominates([2.0, 0.0], [1.0, 1.0])


@given(st.integers(2, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_dominates_matches_oracle(m, data):
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    a = data.draw(st.lists(levels, min_size=m, max_size=m))
    b = data.draw(st.lists(levels, min_size=m, max_size=m))
    assert pair_dominates(a, b) == oracle_dominates(a, b)


@pytest.mark.parametrize("m", range(1, 18))
def test_sq_dists_sums_in_np_sum_order(m):
    # the bytes of IGD+-C, epsilon-clearing and the MOEA/D neighbourhoods
    # rest on _sq_dists adding its terms in np.sum's order over a short
    # axis; a NumPy that changes that order fails here first
    rng = np.random.default_rng(m)
    a, b = rng.standard_normal((2, 64, m)) * 10.0 ** rng.integers(
        -8, 9, size=(2, 64, m))
    for plus in (False, True):
        diff = a[:, None, :] - b[None, :, :]
        if plus:
            np.maximum(diff, 0.0, out=diff)
        sq = diff * diff
        want = np.sum(sq, axis=-1)
        assert _sq_dists(a, b, plus).tobytes() == want.tobytes()
        # the data tells orders apart: other sums differ somewhere
        if m >= 3:
            backward = sum(sq[..., k] for k in reversed(range(m)))
            assert backward.tobytes() != want.tobytes()
        if m >= 8:
            forward = sum(sq[..., k] for k in range(m))
            assert forward.tobytes() != want.tobytes()


def test_domination_matrix_matches_pairwise(engine):
    objs = random_objs(engine, 30, 3, duplicates=True)
    dom = domination_matrix(objs)
    for i in range(30):
        for j in range(30):
            assert dom[i, j] == oracle_dominates(objs[i], objs[j])


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("n", [1, 10, 120])
def test_nondominated_mask_matches_oracle(m, n):
    engine = make_engine(100 * m + n)
    objs = random_objs(engine, n, m, duplicates=True)
    assert np.array_equal(nondominated_mask(objs),
                          oracle_nondominated_mask(objs))


def test_nondominated_mask_with_heavy_ties():
    engine = make_engine(7)
    for m in (2, 3):
        objs = engine.integers(0, 4, size=(60, m)).astype(float)
        assert np.array_equal(nondominated_mask(objs),
                              oracle_nondominated_mask(objs))


def test_nondominated_mask_keeps_all_duplicates_of_a_best_point():
    objs = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    assert nondominated_mask(objs).tolist() == [True, True, False]


def test_nondominated_mask_large_pool_two_objectives():
    engine = make_engine(11)
    objs = random_objs(engine, 3000, 2)
    mask = nondominated_mask(objs)
    sample = np.flatnonzero(mask)[:50]
    kept = objs[mask]
    for i in sample:
        assert not any(oracle_dominates(row, objs[i]) for row in kept
                       if not np.array_equal(row, objs[i]))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_nondominated_sort_matches_oracle(m):
    for trial in range(20):
        engine = make_engine(trial * 10 + m)
        n = int(engine.integers(1, 80))
        objs = random_objs(engine, n, m, duplicates=True)
        got = level_fronts(nondominated_sort(objs[None])[0])
        want = oracle_sort(objs)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert sorted(g) == sorted(w.tolist())


def test_sort_levels_partition_population(engine):
    objs = random_objs(engine, 50, 3)
    fronts = level_fronts(nondominated_sort(objs[None])[0])
    flat = sorted(i for front in fronts for i in front)
    assert flat == list(range(50))


def test_fronts_from_matrix_handles_cycles():
    # a beats b, b beats c, c beats a: no level-0 member exists
    dom = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool)
    assert fronts_from_matrix(dom[None])[0].tolist() == [0, 0, 0]


def random_relation(rng, n, kind, density):
    """Random irreflexive relation of one of three kinds.

    "acyclic" orients every edge along a random order; "late cycle" adds
    back edges among the last members of that order, so levels come before
    the cycle; "any" draws every off-diagonal edge independently.
    """
    if kind == "any":
        dom = rng.random((n, n)) < density
    else:
        order = rng.permutation(n)
        forward = order[:, None] < order[None, :]
        dom = (rng.random((n, n)) < density) & forward
        if kind == "late cycle":
            late = order >= rng.integers(0, n + 1)
            dom |= (rng.random((n, n)) < density) & ~forward & np.outer(
                late, late)
    np.fill_diagonal(dom, False)
    return dom


def prefix_levels(fronts, k, n):
    """Level array of the first ``k`` levels of ``fronts``; the rest get n."""
    levels = np.full(n, n)
    for level, front in enumerate(fronts[:k]):
        levels[np.asarray(front, dtype=int)] = level
    return levels


def level_fronts(levels):
    """Index lists of one population's levels, level 0 first; members at
    level N, which the sort did not reach, are left out."""
    placed = levels[levels < len(levels)]
    return [np.flatnonzero(levels == k).tolist()
            for k in range(placed.max() + 1 if placed.size else 0)]


def lumps_logged(caplog, name):
    return sum(rec.name == name and "cyclic" in rec.getMessage()
               for rec in caplog.records)


@given(n=st.integers(0, 250), data=st.data(),
       kind=st.sampled_from(["acyclic", "late cycle", "any"]),
       density=st.sampled_from([0.0, 0.01, 0.05, 0.3, 0.9]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fronts_from_matrix_matches_full_peel(n, data, kind, density, seed,
                                              caplog):
    dom = random_relation(np.random.default_rng(seed), n, kind, density)
    size = data.draw(st.one_of(st.none(), st.integers(0, n + 1)))
    caplog.clear()
    want = oracle_fronts_from_matrix(dom)
    got = fronts_from_matrix(dom[None], size)[0]
    # the shortest prefix of the full peel that holds size members
    placed = np.cumsum([0] + [len(front) for front in want])
    k = len(want) if size is None else int(np.searchsorted(
        placed, min(size, n)))
    assert got.tobytes() == prefix_levels(want, k, n).tobytes()
    # a lumped cycle is the full peel's last level; only a sort that
    # reaches it warns, once
    ref_lumps = lumps_logged(caplog, "conftest.reference")
    assert lumps_logged(caplog, "prefnorm.ranking") == (
        ref_lumps if k == len(want) else 0)


@given(n=st.integers(0, 60), m=st.integers(1, 5), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_nondominated_sort_stops_at_size(n, m, data, seed):
    # quantized objectives give ties and duplicate rows; -0.0 must equal 0.0
    rng = np.random.default_rng(seed)
    objs = rng.integers(0, 4, size=(n, m)) * 0.5
    if n:
        objs[rng.random(n) < 0.2] = objs[0]
    objs[rng.random((n, m)) < 0.1] = -0.0
    size = data.draw(st.integers(0, n + 1))
    got = level_fronts(nondominated_sort(objs[None], size)[0])
    want = [front.tolist() for front in oracle_sort(objs)]
    assert got == want[:len(got)]
    sizes = [len(front) for front in got]
    assert sum(sizes) >= min(size, n)
    assert sum(sizes[:-1]) < size or not got


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3,), (2, 2, 3), ()])
def test_fronts_from_matrix_rejects_non_square(shape):
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        fronts_from_matrix(np.zeros(shape, dtype=bool))


def test_sort_rejects_negative_size():
    with pytest.raises(ValueError, match="size must be >= 0, got -1"):
        fronts_from_matrix(np.zeros((1, 3, 3), dtype=bool), -1)
    with pytest.raises(ValueError, match="size must be >= 0, got -2"):
        nondominated_sort(np.zeros((1, 3, 2)), -2)


def test_crowding_distance_three_collinear_points():
    objs = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    dist = crowding_distance(objs, [0, 0, 0])
    assert np.isinf(dist[0]) and np.isinf(dist[2])
    assert dist[1] == pytest.approx(2.0)


def test_crowding_distance_small_fronts_all_infinite():
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]), [0])))
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0],
                                                       [2.0, 1.0]]),
                                             [0, 0])))


def test_crowding_distance_rewards_isolation():
    # four points on a line; the big gap around index 2 beats index 1
    objs = np.array([[0.0, 1.0], [0.1, 0.9], [0.5, 0.5], [1.0, 0.0]])
    dist = crowding_distance(objs, [0, 0, 0, 0])
    assert dist[2] > dist[1]


def test_crowding_distance_constant_objective_contributes_nothing():
    objs = np.array([[0.0, 5.0], [0.5, 5.0], [1.0, 5.0]])
    dist = crowding_distance(objs, [0, 0, 0])
    # second objective has zero range; only the first one spreads
    assert dist[1] == pytest.approx(1.0)


def test_r_dominance_delta_one_is_pareto(engine):
    objs = random_objs(engine, 25, 3)
    dists = engine.uniform(size=25)
    assert np.array_equal(r_domination_matrix(objs, dists, 1.0),
                          domination_matrix(objs))


def test_r_dominance_delta_zero_orders_incomparable_pairs():
    objs = np.array([[0.0, 1.0], [1.0, 0.0]])
    # row 0 is closer to the reference point, so with delta=0 it wins
    mat = r_domination_matrix(objs, np.array([0.2, 0.9]), 0.0)
    assert mat.tolist() == [[False, True], [False, False]]
    mat = r_domination_matrix(objs, np.array([0.9, 0.2]), 0.0)
    assert mat.tolist() == [[False, False], [True, False]]


def test_r_dominance_threshold_blocks_small_gaps():
    # four mutually incomparable points; rows 2 and 3 pin the distance
    # range to [0, 1]
    objs = np.array([[0.0, 1.0], [1.0, 0.0], [0.2, 0.8], [0.8, 0.2]])
    # normalized distance gap is -0.2, not below -0.3
    mat = r_domination_matrix(objs, np.array([0.4, 0.6, 0.0, 1.0]), 0.3)
    assert not mat[0, 1] and not mat[1, 0]
    # gap -0.4 crosses the threshold
    mat = r_domination_matrix(objs, np.array([0.2, 0.6, 0.0, 1.0]), 0.3)
    assert mat[0, 1] and not mat[1, 0]


def test_r_dominance_pareto_wins_regardless_of_distance():
    objs = np.array([[0.0, 0.0], [1.0, 1.0]])
    # row 0 dominates row 1 even though row 1 is much closer to the
    # reference point
    mat = r_domination_matrix(objs, np.array([0.9, 0.0]), 0.5)
    assert mat.tolist() == [[False, True], [False, False]]


def test_r_dominance_zero_range_degenerates_to_pareto():
    objs = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    mat = r_domination_matrix(objs, np.full(3, 0.5), 0.0)
    assert np.array_equal(mat, domination_matrix(objs))
    assert not mat[0, 1] and not mat[1, 0]


def test_r_dominance_rejects_bad_delta():
    for delta in (1.5, -0.1):
        with pytest.raises(ValueError):
            r_domination_matrix(np.zeros((2, 2)), np.zeros(2), delta)


@given(st.floats(0.0, 1.0), st.data())
@settings(max_examples=80, deadline=None)
def test_r_dominance_is_antisymmetric(delta, data):
    vals = st.floats(0.0, 1.0, allow_nan=False)
    fa = data.draw(st.lists(vals, min_size=2, max_size=2))
    fb = data.draw(st.lists(vals, min_size=2, max_size=2))
    d_a = data.draw(vals)
    d_b = data.draw(vals)
    # the last two rows pin the distance range to [0, 1]
    objs = np.array([fa, fb, [2.0, 2.0], [3.0, 3.0]])
    mat = r_domination_matrix(objs, np.array([d_a, d_b, 0.0, 1.0]), delta)
    assert not np.any(mat & mat.T)
    want = oracle_r_dominance(fa, fb, d_a, d_b, 0.0, 1.0, delta)
    assert (mat[0, 1], mat[1, 0]) == (want == 1, want == -1)


def test_r_domination_matrix_agrees_with_scalar_compare(engine):
    objs = random_objs(engine, 15, 2)
    dists = engine.uniform(size=15)
    d_min, d_max = float(dists.min()), float(dists.max())
    for delta in (0.0, 0.3, 1.0):
        mat = r_domination_matrix(objs, dists, delta)
        for i in range(15):
            for j in range(15):
                want = oracle_r_dominance(objs[i], objs[j], dists[i],
                                          dists[j], d_min, d_max, delta)
                assert mat[i, j] == (want == 1)


@given(n=st.integers(6, 12), runs=st.integers(1, 3),
       scale=st.sampled_from([1e-300, 1e-8, 1.0, 7.0, 1e6, 1e300]),
       delta=st.one_of(st.sampled_from([0.0, 0.25, 0.3, 1.0]),
                       st.floats(0.0, 1.0)),
       steps=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_r_domination_block_matches_scalar_compare(n, runs, scale, delta,
                                                   steps, seed):
    # the distances span about [0, scale]; two pairs sit a few ulps either
    # side of a gap of delta times scale, and one gap of a few of the
    # smallest floats may divide to zero, so the comparison that replaces
    # the division is tested where it turns, at both ends of the float
    # range
    rng = np.random.default_rng(seed)
    objs = rng.integers(0, 3, size=(runs, n, 2)) * 0.5
    dists = rng.random((runs, n)) * scale
    dists[:, 0], dists[:, 1] = 0.0, scale
    dists[rng.random((runs, n)) < 0.1] = -0.0
    near = dists[:, 2] - delta * scale
    for col, step in zip((3, 4), steps):
        dists[:, col] = near
        for _ in range(abs(step)):
            dists[:, col] = np.nextafter(dists[:, col], step * np.inf)
    dists[:, 5] = dists[:, 2] - np.nextafter(0.0, 1.0) * (1 + abs(steps[2]))
    mat = r_domination_matrix(objs, dists, delta)
    for r in range(runs):
        d_min, d_max = float(dists[r].min()), float(dists[r].max())
        for i in range(n):
            for j in range(n):
                want = oracle_r_dominance(objs[r, i], objs[r, j],
                                          dists[r, i], dists[r, j], d_min,
                                          d_max, delta)
                assert mat[r, i, j] == (want == 1)
