"""Bound estimation strategies and the size-m nadir archive."""
import numpy as np
import pytest

from prefnorm.core import make_engine
from prefnorm.normalization import (EPS_DENOM, KINDS, NormalizationState,
                                    normalize_value,
                                    update_bounded_archive_objs,
                                    update_state, TrueScaler)

from conftest import oracle_unbounded_nadir, random_objs


def test_population_bound_estimates():
    objs = np.array([[1.0, 4.0], [2.0, 1.0], [3.0, 3.0]])
    state = update_state(NormalizationState("pp", 2, 1), objs[None])
    assert np.array_equal(state.z_lb[0], [1.0, 1.0])
    assert np.array_equal(state.z_ub[0], [3.0, 4.0])
    for kind in ("pp", "bp", "ba"):
        with pytest.raises(ValueError):
            update_state(NormalizationState(kind, 2, 1), np.empty((1, 0, 2)))


def test_best_so_far_only_improves():
    state = NormalizationState("bp", 2, 1)
    update_state(state, np.array([[[2.0, 2.0]]]))
    update_state(state, np.array([[[2.0, 2.0]]]), np.array([[[1.0, 5.0]]]))
    assert np.array_equal(state.best_min[0], [1.0, 2.0])
    update_state(state, np.array([[[9.0, 9.0]]]))
    assert np.array_equal(state.best_min[0], [1.0, 2.0])
    assert np.array_equal(state.z_lb[0], [1.0, 2.0])


class TestBoundedArchive:
    def test_archive_has_one_slot_per_objective(self):
        engine = make_engine(10)
        arch = np.empty((1, 0, 3))
        for _ in range(5):
            batch = random_objs(engine, 30, 3)
            arch = update_bounded_archive_objs(arch, batch[None])
        assert arch.shape == (1, 3, 3)

    def test_slot_i_maximizes_objective_i(self):
        engine = make_engine(11)
        batch = random_objs(engine, 50, 2)
        arch = update_bounded_archive_objs(np.empty((1, 0, 2)), batch[None])[0]
        for i in range(2):
            assert arch[i, i] == arch.max(axis=0)[i]

    def test_matches_unbounded_oracle_on_nondominated_streams(self):
        # mutually non-dominated stream points (unit-sphere octant), so the
        # unbounded archive keeps everything; small-scale version of the
        # exhaustive acceptance check
        for seed in range(30):
            engine = make_engine(seed)
            m = int(engine.integers(2, 5))
            arch = np.empty((1, 0, m))
            seen = np.empty((0, m))
            for _ in range(6):
                batch = engine.uniform(0.05, 1.0, size=(25, m))
                batch /= np.linalg.norm(batch, axis=1, keepdims=True)
                arch = update_bounded_archive_objs(arch, batch[None])
                seen = np.vstack([seen, batch])
                assert np.allclose(arch[0].max(axis=0),
                                   oracle_unbounded_nadir(seen))

    def test_matches_oracle_when_dominators_share_the_batch(self):
        # dominated points whose dominator rides in the same batch are
        # flushed immediately, so equivalence still holds exactly
        for seed in range(30):
            engine = make_engine(1000 + seed)
            m = int(engine.integers(2, 5))
            arch = np.empty((1, 0, m))
            seen = np.empty((0, m))
            for _ in range(5):
                base = engine.uniform(0.05, 1.0, size=(15, m))
                base /= np.linalg.norm(base, axis=1, keepdims=True)
                companions = base + engine.uniform(0.01, 0.5,
                                                   size=base.shape)
                batch = np.vstack([base, companions])
                engine.shuffle(batch)
                arch = update_bounded_archive_objs(arch, batch[None])
                seen = np.vstack([seen, batch])
                assert np.allclose(arch[0].max(axis=0),
                                   oracle_unbounded_nadir(seen))

    def test_dominated_entries_are_flushed(self):
        arch = update_bounded_archive_objs(np.empty((1, 0, 2)),
                                           np.array([[[0.0, 1.0],
                                                      [1.0, 0.0]]]))
        assert np.allclose(arch[0].max(axis=0), [1.0, 1.0])
        # a dominating point invalidates both old members
        arch = update_bounded_archive_objs(arch, np.array([[[-1.0, -1.0]]]))
        assert np.allclose(arch[0], [[-1.0, -1.0], [-1.0, -1.0]])

    def test_approximates_unbounded_archive_at_three_objectives(self):
        # (0.7, 0.5, 0.5) is extreme in no objective and leaves the archive;
        # once (0.6, 0.6, 0) dominates the f1 extreme (1, 0.6, 0), the
        # dropped vector holds the unbounded archive's f1 maximum
        first = np.array([[1.0, 0.6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                          [0.7, 0.5, 0.5]])
        second = np.array([[0.6, 0.6, 0.0]])
        arch = update_bounded_archive_objs(np.empty((1, 0, 3)), first[None])
        assert not (arch[0] == first[3]).all(axis=1).any()
        arch = update_bounded_archive_objs(arch, second[None])
        assert np.array_equal(arch[0].max(axis=0), [0.6, 1.0, 1.0])
        unbounded = oracle_unbounded_nadir(np.vstack([first, second]))
        assert np.array_equal(unbounded, [0.7, 1.0, 1.0])

    def test_ties_resolve_to_lowest_index(self):
        batch = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        arch = update_bounded_archive_objs(np.empty((1, 0, 2)), batch[None])[0]
        # rows 0 and 2 tie on objective 2's max; slot keeps the first
        assert np.array_equal(arch[1], [0.0, 1.0])


def test_init_state_by_kind():
    for kind in KINDS:
        state = NormalizationState(kind, 3, 1)
        assert state.kind == kind
        assert np.array_equal(state.z_lb, np.zeros((1, 3)))
        assert np.array_equal(state.z_ub, np.ones((1, 3)))
    with pytest.raises(ValueError):
        NormalizationState("zz", 3, 1)


def test_update_state_no_kind_is_identity():
    state = NormalizationState("no", 2, 1)
    update_state(state, np.array([[[5.0, 5.0], [9.0, -3.0]]]))
    assert np.array_equal(state.z_lb[0], [0.0, 0.0])
    assert np.array_equal(state.z_ub[0], [1.0, 1.0])


def test_update_state_pp_tracks_current_union_only():
    state = NormalizationState("pp", 2, 1)
    update_state(state, np.array([[[0.0, 4.0], [2.0, 2.0]]]))
    assert np.array_equal(state.z_lb[0], [0.0, 2.0])
    assert np.array_equal(state.z_ub[0], [2.0, 4.0])
    # a later, narrower population shrinks both bounds again
    update_state(state, np.array([[[1.0, 3.0]]]))
    assert np.array_equal(state.z_lb[0], [1.0, 3.0])
    assert np.array_equal(state.z_ub[0], [1.0, 3.0])


def test_update_state_bp_lower_bound_never_rises():
    state = NormalizationState("bp", 2, 1)
    update_state(state, np.array([[[0.0, 4.0], [2.0, 2.0]]]))
    lb1 = state.z_lb[0].copy()
    update_state(state, np.array([[[1.0, 3.0]]]))
    assert np.all(state.z_lb[0] <= lb1)
    # upper bound still follows the current union
    assert np.array_equal(state.z_ub[0], [1.0, 3.0])


def test_update_state_ba_upper_bound_from_archive():
    state = NormalizationState("ba", 2, 1)
    update_state(state, np.array([[[0.0, 1.0], [1.0, 0.0]]]))
    assert np.allclose(state.z_ub[0], [1.0, 1.0])
    # dominated newcomers cannot inflate the archive nadir
    update_state(state, np.array([[[2.0, 2.0]]]), np.array([[[2.0, 2.0]]]))
    assert np.allclose(state.z_ub[0], [1.0, 1.0])
    # but a new extreme nondominated point can
    update_state(state, np.array([[[3.0, -1.0]]]), np.array([[[3.0, -1.0]]]))
    assert np.allclose(state.z_ub[0], [3.0, 1.0])


def test_update_state_ba_golden_three_generations():
    # hand-computed trace: archive and bounds after each generation
    state = NormalizationState("ba", 2, 1)
    update_state(state, np.array([[[1.0, 5.0], [4.0, 2.0], [6.0, 6.0]]]))
    assert np.array_equal(state.z_lb[0], [1.0, 2.0])
    assert np.array_equal(state.z_ub[0], [4.0, 5.0])

    update_state(state, np.array([[[1.0, 5.0], [4.0, 2.0]]]),
                 off_objs=np.array([[[0.5, 4.0], [5.0, 1.0]]]))
    # best-so-far ideal folds in the offspring minimum
    assert np.array_equal(state.z_lb[0], [0.5, 1.0])
    # (0.5, 4) dominates the old slot holder (1, 5), so the archive is now
    # (5, 1) for objective 1 and (0.5, 4) for objective 2
    assert np.array_equal(state.arch_objs[0], [[5.0, 1.0], [0.5, 4.0]])
    assert np.array_equal(state.z_ub[0], [5.0, 4.0])

    update_state(state, np.array([[[0.5, 4.0]]]),
                 off_objs=np.array([[[0.2, 0.2]]]))
    # (0.2, 0.2) dominates every archive member and replaces both slots
    assert np.array_equal(state.z_lb[0], [0.2, 0.2])
    assert np.array_equal(state.z_ub[0], [0.2, 0.2])


def test_update_state_offspring_fold_into_union():
    for kind in ("pp", "bp"):
        state = NormalizationState(kind, 2, 1)
        update_state(state, np.array([[[1.0, 1.0]]]),
                     off_objs=np.array([[[0.0, 2.0]]]))
        assert np.array_equal(state.z_lb[0], [0.0, 1.0])
        assert np.array_equal(state.z_ub[0], [1.0, 2.0])


def test_normalize_value_floors_denominator():
    f = np.array([3.0, 1.0])
    z_lb = np.array([1.0, 1.0])
    z_ub = np.array([5.0, 1.0])
    out = normalize_value(f, z_lb, z_ub)
    assert out[0] == pytest.approx(0.5)
    # a collapsed range divides by the epsilon floor instead of zero
    assert out[1] == pytest.approx(0.0)
    collapsed = normalize_value(np.array([1.0 + 1e-13, 1.0]), z_lb, z_ub)
    assert np.isfinite(collapsed[0])
    assert EPS_DENOM > 0.0


def test_true_scaler_normalizes_to_unit_box():
    scaler = TrueScaler(ideal=np.array([1.0, 2.0]),
                        nadir=np.array([3.0, 6.0]))
    assert np.allclose(scaler.normalize(np.array([1.0, 2.0])), [0.0, 0.0])
    assert np.allclose(scaler.normalize(np.array([3.0, 6.0])), [1.0, 1.0])
    assert np.allclose(scaler.normalize(np.array([2.0, 4.0])), [0.5, 0.5])
