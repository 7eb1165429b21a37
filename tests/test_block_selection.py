"""A cell's survivors, selected as one block, equal each run's own.

``_run_generational`` hands its runner's ``select`` the (R, N, m) unions
of a cell's R runs in one call.  Here that closure is taken from each GA
runner and called on blocks of R in {1, 2, 7} unions.  Each run's slice of
the result must equal the per-run oracle byte for byte: the survivors,
their levels, their tournament keys and the run's engine state afterwards.

* nsga2: ``conftest.oracle_nsga2_selection``, ``oracle_sort`` plus
  per-level crowding;
* rnsga2: ``conftest.oracle_rnsga2_environmental_selection``;
* r2nsga2: ``conftest.oracle_r2nsga2_selection``.

The unions are quantized, with duplicate rows, -0.0 entries and, in some
runs, an objective of zero range.  Each algorithm's trials must include
levels of one and of two members, a cut level that fits exactly and, for
r2nsga2, r-dominance cycles both reached by the peel and past the
survivors.  A run whose peel reaches a cycle logs one warning, with the
text and argument ``bench/child.py`` counts.

The generational loop selects a cell's runs in groups that fit
``SELECT_PAIRS``; a cell selected in groups runs as it does in one block.
"""
import logging

import numpy as np
import pytest

from conftest import (oracle_nsga2_selection, oracle_r2nsga2_selection,
                      oracle_rnsga2_environmental_selection, oracle_sort)
from prefnorm import algorithms
from prefnorm.algorithms import ALGORITHMS, AlgorithmParams
from prefnorm.core import make_engine
from prefnorm.normalization import NormalizationState
from prefnorm.problems import get_problem

TRIALS = 60
PARAMS = AlgorithmParams(epsilon_clear=0.3, delta=0.3)
CYCLE = "cyclic dominance relation; %d individuals lumped into the last level"


def block_select(algorithm, m, mu, monkeypatch):
    """The runner's ``select`` closure for dtlz2 with m objectives."""
    captured = []

    def capture(*args):
        captured.append(args[-1])
        return []

    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "_run_generational", capture)
        ALGORITHMS[algorithm](get_problem("dtlz2", m), np.full(m, 0.5), "pp",
                              mu, mu, [], PARAMS)
    return captured[0]


def union_block(rng, runs, n, m):
    """Quantized unions with duplicate rows, -0.0 and flat objectives."""
    uf = rng.integers(0, 4, size=(runs, n, m)) * 0.5
    uf = np.where((rng.random((runs, n)) < 0.2)[..., None], uf[:, :1], uf)
    uf[rng.random(uf.shape) < 0.05] = -0.0
    flat = rng.random(runs) < 0.3
    uf[flat, :, int(rng.integers(m))] = 1.0
    return uf, flat.any()


def random_states(rng, runs, m):
    """``pp`` states with random bounds, some spans at the floor."""
    states = []
    for _ in range(runs):
        state = NormalizationState("pp", m)
        state.z_lb = rng.integers(0, 3, size=m) * 0.25
        state.z_ub = state.z_lb + rng.integers(0, 4, size=m) * 0.5
        states.append(state)
    return states


def oracle(algorithm, uf, state, mu, engine):
    """(survivors, levels, keys, full peel) of one run's selection."""
    dist = algorithms.weighted_ref_distance(
        uf, np.full(uf.shape[1], 0.5), np.full(uf.shape[1], 1 / uf.shape[1]),
        state.z_lb, state.z_ub)
    if algorithm == "nsga2":
        return (*oracle_nsga2_selection(uf, mu),
                [front.tolist() for front in oracle_sort(uf)])
    if algorithm == "rnsga2":
        keep, rank = oracle_rnsga2_environmental_selection(
            uf, dist, mu, PARAMS.epsilon_clear, state.z_lb, state.z_ub,
            engine)
        return (keep, rank, dist[keep],
                [front.tolist() for front in oracle_sort(uf)])
    return oracle_r2nsga2_selection(uf, dist, PARAMS.delta, mu)


def lumps(caplog, name):
    """Sizes of the lumps logger ``name`` reported, checking the text."""
    records = [rec for rec in caplog.records if rec.name == name]
    assert all(rec.msg == CYCLE for rec in records)
    return [rec.args[0] for rec in records]


@pytest.mark.parametrize("runs", [1, 2, 7])
@pytest.mark.parametrize("algorithm", ["nsga2", "rnsga2", "r2nsga2"])
def test_block_selection_matches_runs_one_at_a_time(algorithm, runs,
                                                    monkeypatch, caplog):
    caplog.set_level(logging.WARNING)
    seen = set()
    for trial in range(TRIALS):
        rng = np.random.default_rng([runs, trial])
        m = int(rng.choice([2, 3, 5, 8]))
        n = int(rng.integers(2, 41))
        # every other trial keeps few survivors, so that cycles lie past them
        mu = int(rng.integers(1, (n if trial % 2 else max(n // 8, 1)) + 1))
        uf, flat = union_block(rng, runs, n, m)
        states = random_states(rng, runs, m)
        seeds = rng.integers(2**32, size=runs)
        engines = [make_engine(seed) for seed in seeds]
        select = block_select(algorithm, m, mu, monkeypatch)
        caplog.clear()
        keep, primary, secondary = select(uf, states, engines)
        got_lumps = sorted(lumps(caplog, "prefnorm.ranking"))
        want_lumps = []
        for r, seed in enumerate(seeds):
            engine = make_engine(seed)
            caplog.clear()
            want_keep, want_rank, want_keys, full = oracle(
                algorithm, uf[r], states[r], mu, engine)
            assert keep[r].tobytes() == want_keep.tobytes()
            assert primary[r].tobytes() == want_rank.tobytes()
            assert secondary[r].tobytes() == want_keys.tobytes()
            assert (engines[r].bit_generator.state
                    == engine.bit_generator.state)
            # the levels the peel reaches: the shortest prefix holding mu
            placed = np.cumsum([len(front) for front in full])
            size = int(np.searchsorted(placed, mu)) + 1
            sizes = {len(front) for front in full[:size]}
            seen |= {f"level of {k}" for k in (1, 2) if k in sizes}
            if placed[size - 1] == mu and size > 1:
                seen.add("exact fit")
            if flat:
                seen.add("zero range")
            # the full peel lumps a cycle into its last level
            if lumps(caplog, "conftest.reference"):
                if size == len(full):
                    seen.add("cycle reached")
                    want_lumps.append(len(full[-1]))
                else:
                    seen.add("cycle past")
        # one warning per run whose peel reaches its cycle
        assert got_lumps == sorted(want_lumps)
    want = {"level of 1", "level of 2", "exact fit", "zero range"}
    if algorithm == "r2nsga2":
        want |= {"cycle reached", "cycle past"}
    assert want <= seen, want - seen


@pytest.mark.parametrize("algorithm", ["nsga2", "rnsga2", "r2nsga2"])
def test_runs_selected_in_groups_match_one_block(algorithm, monkeypatch):
    # a cell's runs are selected in groups that fit SELECT_PAIRS; groups of
    # two, with a last group of one, give the same runs as one block
    mu, budget, problem = 12, 120, get_problem("dtlz2", 3)

    def cell():
        engines = [make_engine(seed) for seed in range(5)]
        logs = [[] for _ in engines]
        finals = ALGORITHMS[algorithm](
            problem, np.full(3, 0.5), "ba", mu, budget, engines, PARAMS,
            [lambda evals, fs, state, log=log: log.append(fs.tobytes())
             for log in logs])
        return ([f.tobytes() for f in finals], logs,
                [e.bit_generator.state for e in engines])

    whole = cell()
    monkeypatch.setattr(algorithms, "SELECT_PAIRS", 2 * (2 * mu) ** 2)
    assert cell() == whole
