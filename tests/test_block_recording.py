"""A cell's recording and bounds, computed as one block, equal each run's own.

``_run_generational`` keeps one normalization state for all R runs of a
cell and hands the cell's recorder the (R, N, m) populations in one call.
Each run's slice must equal what that run computes on its own, byte for
byte:

* ``igd_plus_c`` on an (R, N, m) block against one call per run and
  ``conftest.oracle_igd_plus_c``, at m in 2..10 (m >= 8 takes
  ``_sq_dists``' pairwise sum), 1, 121 and 1118 reference points, NaN rows,
  and R on both sides of an :data:`IGD_PAIRS` group boundary;
* ``e_ideal``, ``e_nadir`` and ``ore`` on (R, m) bounds against one call
  per row;
* ``update_state`` on a state of R runs, of one kind or of several kinds
  in contiguous slices, against ``conftest.oracle_update_state``, the
  per-run update with its own bounded archive, over several generations of
  quantized objectives with duplicate rows, argmax ties, -inf and NaN
  entries;
* the cell's checkpoint recorder, handed the block of all its runs, against
  each run's indicators computed on their own.
"""
import numpy as np
import pytest

from conftest import OracleState, oracle_igd_plus_c, oracle_update_state
from prefnorm import harness, indicators
from prefnorm.algorithms import ALGORITHMS
from prefnorm.core import make_engine
from prefnorm.indicators import (IGD_PAIRS, RoiReferenceSet, e_ideal,
                                 e_nadir, igd_plus_c, ore)
from prefnorm.normalization import (KINDS, NormalizationState, TrueScaler,
                                    update_bounded_archive_objs, update_state)
from prefnorm.problems import get_problem


def random_scaler(rng, m):
    ideal = rng.uniform(-1.0, 0.0, m)
    return TrueScaler(ideal=ideal, nadir=ideal + rng.uniform(0.5, 3.0, m))


def solution_block(rng, runs, n, m, points):
    """(R, N, m) solutions near the reference points, with a NaN row in
    some runs, duplicate rows and -0.0 entries."""
    pick = rng.integers(0, len(points), size=(runs, n))
    objs = points[pick] + rng.normal(0.0, 0.1, (runs, n, m))
    dup = rng.random((runs, n)) < 0.1
    objs[dup] = objs[np.nonzero(dup)[0], 0]
    objs[rng.random((runs, n, m)) < 0.05] = -0.0
    nan_runs = rng.random(runs) < 0.3
    objs[nan_runs, rng.integers(0, n)] = np.nan
    return objs


class TestBlockIndicators:

    @pytest.mark.parametrize("n_ref", [1, 121, 1118])
    @pytest.mark.parametrize("m", range(2, 11))
    def test_igd_plus_c_block_equals_runs(self, m, n_ref):
        rng = np.random.default_rng([m, n_ref])
        points = rng.random((n_ref, m))
        roi = RoiReferenceSet(points=points, scaler=random_scaler(rng, m))
        n = 20
        # a block of one group, the group size itself, and one run past it
        step = max(1, IGD_PAIRS // (n * n_ref))
        for runs in sorted({1, min(step, 40), min(step, 40) + 1}):
            objs = solution_block(rng, runs, n, m, points)
            got = igd_plus_c(objs, roi)
            assert got.shape == (runs,)
            for r in range(runs):
                one = igd_plus_c(objs[r], roi)
                assert got[r].tobytes() == np.float64(one).tobytes()
                want = oracle_igd_plus_c(objs[r], roi)
                assert got[r].tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_groups_split_the_block_anywhere(self, pairs, monkeypatch):
        # groups of `pairs` runs, the last one short, score as one block
        rng = np.random.default_rng(pairs)
        m, n, n_ref = 9, 13, 121
        points = rng.random((n_ref, m))
        roi = RoiReferenceSet(points=points, scaler=random_scaler(rng, m))
        objs = solution_block(rng, 7, n, m, points)
        whole = igd_plus_c(objs, roi)
        monkeypatch.setattr(indicators, "IGD_PAIRS", pairs * n * n_ref)
        assert igd_plus_c(objs, roi).tobytes() == whole.tobytes()
        assert np.isnan(whole).any() and not np.isnan(whole).all()

    # an upper bound of -inf makes ore's deviations inf - inf
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("m", range(2, 11))
    def test_bound_errors_block_equal_rows(self, m):
        rng = np.random.default_rng(m)
        scaler = random_scaler(rng, m)
        runs = 9
        z_lb = scaler.ideal + rng.normal(0.0, 0.3, (runs, m))
        z_ub = scaler.nadir + rng.normal(0.0, 0.3, (runs, m))
        z_lb[1] = scaler.ideal
        z_ub[2] = z_lb[2]
        z_lb[3, 0] = np.nan
        z_ub[4, -1] = -np.inf
        got = (e_ideal(z_lb, scaler), e_nadir(z_ub, scaler),
               ore(z_lb, z_ub, scaler))
        for r in range(runs):
            want = (e_ideal(z_lb[r], scaler), e_nadir(z_ub[r], scaler),
                    ore(z_lb[r], z_ub[r], scaler))
            for block, one in zip(got, want):
                assert block.shape == (runs,)
                assert block[r].tobytes() == np.float64(one).tobytes()


def generation_block(rng, runs, n, m):
    """Quantized (R, N, m) objectives: duplicates, ties, -inf and NaN."""
    objs = rng.integers(0, 4, size=(runs, n, m)) * 0.5
    objs = np.where((rng.random((runs, n)) < 0.2)[..., None], objs[:, :1],
                    objs)
    objs[rng.random((runs, n, m)) < 0.03] = -np.inf
    objs[rng.random((runs, n, m)) < 0.01] = np.nan
    return objs


def assert_state_equal(block, states):
    # the block holds archives for its ba runs only, in run order
    archives = iter(block.arch_objs)
    for r, state in enumerate(states):
        assert block.kinds[r] == state.kind
        got = {name: getattr(block, name)[r]
               for name in ("z_lb", "z_ub", "best_min")}
        if state.kind == "ba":
            got["arch_objs"] = next(archives)
        for name, value in got.items():
            want = getattr(state, name)
            assert value.shape == want.shape, name
            assert value.tobytes() == want.tobytes(), (r, name)
    assert next(archives, None) is None


def check_block_update(kinds, seed):
    """A state of ``kinds`` against one oracle state per run, over five
    generations of quantized objectives."""
    rng = np.random.default_rng(seed)
    runs = len(kinds)
    m = int(rng.integers(2, 6))
    mu = int(rng.integers(1, 9))
    block = NormalizationState(kinds, m)
    states = [OracleState(kind, m) for kind in kinds]
    pop = generation_block(rng, runs, mu, m)
    update_state(block, pop)
    for r, state in enumerate(states):
        oracle_update_state(state, pop[r])
    assert_state_equal(block, states)
    for _ in range(4):
        off = generation_block(rng, runs, mu, m)
        update_state(block, pop, off)
        for r, state in enumerate(states):
            oracle_update_state(state, pop[r], off[r])
        assert_state_equal(block, states)
        pop = np.concatenate([pop, off], axis=1)[
            :, rng.permutation(2 * mu)[:mu]]


class TestBlockStateUpdate:

    @pytest.mark.parametrize("runs", [1, 2, 7])
    @pytest.mark.parametrize("kind", KINDS)
    def test_block_update_equals_runs(self, kind, runs):
        for trial in range(40):
            check_block_update([kind] * runs,
                               [runs, KINDS.index(kind), trial])

    @pytest.mark.parametrize("per_kind", [1, 3])
    @pytest.mark.parametrize("order", [("pp", "bp", "ba", "no"),
                                       ("ba", "no", "pp")])
    def test_mixed_kind_update_equals_runs(self, order, per_kind):
        # each kind's slice of one block follows that kind's rule, row by
        # row, as a state of its own would
        kinds = [kind for kind in order for _ in range(per_kind)]
        for trial in range(40):
            check_block_update(kinds, [len(order), per_kind, trial])

    def test_minus_inf_maximum_goes_to_the_first_survivor(self):
        # row 0 is dominated, and every survivor reads -inf in objective 0,
        # so objective 0's maximum over the whole pool sits on row 0 too
        pool = np.array([[[-np.inf, 1.0], [-np.inf, 0.0], [-np.inf, 0.0]],
                         [[-np.inf, 0.0], [-np.inf, 1.0], [-np.inf, 2.0]]])
        got = update_bounded_archive_objs(np.empty((2, 0, 2)), pool)
        for r in range(2):
            state = OracleState("ba", 2)
            oracle_update_state(state, pool[r])
            assert got[r].tobytes() == state.arch_objs.tobytes()
        assert np.array_equal(got[0], [[-np.inf, 0.0], [-np.inf, 0.0]])

    def test_empty_archive_of_each_run(self):
        state = NormalizationState(["ba"] * 4, 3)
        assert state.arch_objs.shape == (4, 0, 3)
        assert state.z_lb.shape == state.z_ub.shape == (4, 3)
        with pytest.raises(ValueError, match="at least one solution"):
            update_bounded_archive_objs(state.arch_objs, np.empty((4, 0, 3)))
        with pytest.raises(ValueError):
            update_state(state, np.empty((4, 0, 3)))


def recording(generations, checkpoints, roi):
    """Records of a cell recorder fed all R runs per call.

    ``generations`` holds (evals, (R, N, m) objectives, (R, m) lower and
    upper bounds) per generation boundary.
    """
    runs = len(generations[0][1])
    records = [[] for _ in range(runs)]
    recorder = harness._checkpoint_recorder(checkpoints, roi, records)
    for evals, objs, z_lb, z_ub in generations:
        state = NormalizationState(["pp"] * runs, objs.shape[-1])
        state.z_lb, state.z_ub = z_lb, z_ub
        recorder(evals, objs, state)
    return records


class TestCellRecorder:

    def test_block_records_each_runs_own_values(self):
        rng = np.random.default_rng(5)
        m, runs, n = 3, 4, 10
        points = rng.random((121, m))
        roi = RoiReferenceSet(points=points, scaler=random_scaler(rng, m))
        generations = []
        for evals in (10, 20, 30, 40, 50):
            z_lb = rng.random((runs, m))
            generations.append((evals, solution_block(rng, runs, n, m,
                                                      points),
                                z_lb, z_lb + rng.random((runs, m))))
        # 25 and 30 pass at the same boundary; 45 snaps forward to 50
        checkpoints = (20, 25, 30, 45, 50)
        got = recording(generations, checkpoints, roi)
        blocks = {evals: rest for evals, *rest in generations}
        for r, log in enumerate(got):
            assert [rec["checkpoint"] for rec in log] == list(checkpoints)
            assert [rec["evals"] for rec in log] == [20, 30, 30, 50, 50]
            # a record's values are the run's own, as one run scores them
            for rec in log:
                objs, z_lb, z_ub = blocks[rec["evals"]]
                want = {"igd_plus_c": igd_plus_c(objs[r], roi),
                        "e_ideal": e_ideal(z_lb[r], roi.scaler),
                        "e_nadir": e_nadir(z_ub[r], roi.scaler),
                        "ore": ore(z_lb[r], z_ub[r], roi.scaler),
                        "z_lb": z_lb[r], "z_ub": z_ub[r]}
                assert rec.keys() == {"checkpoint", "evals", *want}
                for key, value in want.items():
                    assert np.asarray(rec[key]).tobytes() == \
                        np.asarray(value).tobytes(), (r, key)
        assert type(got[2][0]["e_nadir"]) is float

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_runner_hands_the_recorder_its_runs(self, name):
        calls = []

        def recorder(evals, fs, state):
            assert fs.shape == (3, 8, 2)
            assert state.z_lb.shape == state.z_ub.shape == (3, 2)
            calls.append(evals)

        ALGORITHMS[name](get_problem("dtlz2", 2), np.full(2, 0.5),
                         ["ba"] * 3, 8, 40,
                         [make_engine(seed) for seed in range(3)],
                         recorder=recorder)
        # every runner hands all its runs over in one call per boundary
        assert calls == [8, 16, 24, 32, 40]
