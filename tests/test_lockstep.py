"""A cell's runs stepping together equal the same runs one at a time.

``_run_generational`` steps R runs at once: one tournament, variation and
evaluation block per generation, then one state update, one selection and
one recorder call for all R runs.  ``run_moead_nums`` steps R runs
generation by generation: one initial block, then per generation each
run's own trials, waves and replacement pass, one state update and one
recorder call.  The reference runs each engine on its own through
``conftest.oracle_run_generational`` (fed the runner's own ``select``) or
``conftest.oracle_run_moead_nums``, the one-run loops with the oracle
operators and the per-run oracle state; each run's recorder calls are then
stacked into the blocks the cell's recorder sees.  Equal populations, equal
records on each run's slice and equal engine states after the run show
that no run's draws moved.  The moead-nums blocks mix normalization kinds
and use crossover rate 0.5, so trials read their targets and waves occur.
A block that mixes normalization kinds, as a (problem, m, algorithm) group
does, also equals one block per kind, for all four runners.
The lockstep rests on two more properties, checked below: stacked SBX and
mutation blocks equal the per-run oracle operators, and an evaluated stack
of blocks equals the blocks evaluated one by one.
"""
import numpy as np
import pytest

from types import SimpleNamespace

from conftest import (oracle_polynomial_mutation_batch,
                      oracle_run_generational, oracle_run_moead_nums,
                      oracle_sbx)
from prefnorm import algorithms
from prefnorm.algorithms import AlgorithmParams
from prefnorm.core import make_engine
from prefnorm.normalization import KINDS
from prefnorm.problems import get_problem, problem_names
from prefnorm.refpoints import default_reference_point
from prefnorm.variation import polynomial_mutation_batch, sbx_batch

MU, BUDGET = 12, 240
# with crossover rate 0.5 a moead-nums trial often reads its target, so
# replacements make trials stale and the pass rebuilds them in waves
PARAMS = AlgorithmParams(de_cr=0.5)


def recording(logs):
    """A cell's recorder that logs each run's slice of every block."""
    def recorder(evals, fs, state):
        for log, f, lb, ub in zip(logs, fs, state.z_lb, state.z_ub):
            log.append((evals, f.tobytes(), lb.tobytes(), ub.tobytes()))
    return recorder


def run_cell(algorithm, kinds, problem, z, seeds):
    """Final populations, records and engine states of a block's runs, run
    r normalizing by ``kinds[r]``."""
    engines = [make_engine(seed) for seed in seeds]
    logs = [[] for _ in seeds]
    finals = algorithms.ALGORITHMS[algorithm](
        problem, z, kinds, MU, BUDGET, engines, PARAMS, recording(logs))
    return ([f.tobytes() for f in finals], logs,
            [e.bit_generator.state for e in engines])


def stacked(one_run, kinds, engines, recorder):
    """``one_run(kind, engine, one_recorder)`` for each run on its own;
    then the runs' recorder calls, stacked run after run, go to
    ``recorder``."""
    calls = [[] for _ in engines]
    finals = [one_run(kind, engine, lambda evals, fs, state, log=log:
                      log.append((evals, fs.copy(), state.z_lb.copy(),
                                  state.z_ub.copy())))
              for kind, engine, log in zip(kinds, engines, calls)]
    for boundary in zip(*calls):
        evals, fs, z_lb, z_ub = zip(*boundary)
        assert len(set(evals)) == 1
        recorder(evals[0], np.concatenate(fs), SimpleNamespace(
            z_lb=np.concatenate(z_lb), z_ub=np.concatenate(z_ub)))
    return finals


def one_at_a_time(problem, kinds, mu, budget, engines, params, recorder,
                  select):
    return stacked(lambda kind, engine, rec: oracle_run_generational(
        problem, kind, mu, budget, engine, params, rec, select),
        kinds, engines, recorder)


def moead_one_at_a_time(problem, z, kinds, mu, budget, engines, params,
                        recorder):
    return stacked(lambda kind, engine, rec: oracle_run_moead_nums(
        problem, z, kind, mu, budget, engine, params, rec),
        kinds, engines, recorder)


def block_kinds(runs, shift):
    """``runs`` kinds in contiguous slices, starting ``shift`` kinds on."""
    return [KINDS[(shift + len(KINDS) * r // runs) % len(KINDS)]
            for r in range(runs)]


@pytest.mark.parametrize("runs", [1, 3, 7])
@pytest.mark.parametrize("name,m", [("dtlz2", 2), ("sdtlz1", 3),
                                    ("idtlz1", 5)])
@pytest.mark.parametrize("algorithm", sorted(algorithms.ALGORITHMS))
def test_lockstep_matches_runs_one_at_a_time(algorithm, name, m, runs,
                                             monkeypatch):
    problem = get_problem(name, m)
    z = default_reference_point(name, m, "balanced")
    # GA blocks of one kind; moead-nums blocks that mix kinds once R > 1
    mixed = algorithm == "moead-nums"
    for shift, kind in enumerate(KINDS):
        kinds = block_kinds(runs, shift) if mixed else [kind] * runs
        seeds = [100 * m + 10 * len(kind) + r for r in range(runs)]
        got = run_cell(algorithm, kinds, problem, z, seeds)
        with monkeypatch.context() as patch:
            if mixed:
                patch.setitem(algorithms.ALGORITHMS, algorithm,
                              moead_one_at_a_time)
            else:
                patch.setattr(algorithms, "_run_generational", one_at_a_time)
            want = run_cell(algorithm, kinds, problem, z, seeds)
        assert all(len(log) == BUDGET // MU for log in got[1])
        assert got == want, kinds


@pytest.mark.parametrize("per_kind", [1, 3])
@pytest.mark.parametrize("order", [("pp", "bp", "ba", "no"),
                                   ("ba", "no", "pp")])
@pytest.mark.parametrize("algorithm", sorted(algorithms.ALGORITHMS))
def test_mixed_kinds_match_per_kind_blocks(algorithm, order, per_kind):
    # a group's kinds step as one block, each kind's runs a contiguous
    # slice; every run equals its run in a block of its kind alone
    problem = get_problem("sdtlz1", 3)
    z = default_reference_point("sdtlz1", 3, "balanced")
    kinds = [kind for kind in order for _ in range(per_kind)]
    seeds = [50 + r for r in range(len(kinds))]
    got = run_cell(algorithm, kinds, problem, z, seeds)
    want = ([], [], [])
    for lo in range(0, len(kinds), per_kind):
        part = run_cell(algorithm, kinds[lo:lo + per_kind], problem, z,
                        seeds[lo:lo + per_kind])
        for whole, piece in zip(want, part):
            whole.extend(piece)
    assert all(len(log) == BUDGET // MU for log in got[1])
    assert got == want


@pytest.mark.parametrize("runs", [1, 2, 5])
def test_stacked_variation_matches_runs_one_at_a_time(runs):
    rng = np.random.default_rng(runs)
    n_pairs, n_var = 6, 7
    lower, upper = -np.ones(n_var), np.linspace(0.5, 2.0, n_var)
    pa, pb = lower + rng.random((2, runs, n_pairs, n_var)) * (upper - lower)
    pb[:, 0] = pa[:, 0]  # identical parents pass through
    seeds = rng.integers(2**32, size=runs)
    for params in (AlgorithmParams(), AlgorithmParams(crossover_prob=0.5,
                                                      mutation_prob=0.3)):
        got_engines = [make_engine(s) for s in seeds]
        want_engines = [make_engine(s) for s in seeds]
        ca, cb = sbx_batch(pa, pb, lower, upper, got_engines, params.sbx_eta,
                           params.crossover_prob)
        got = polynomial_mutation_batch(np.concatenate([ca, cb], axis=1),
                                        lower, upper, got_engines,
                                        params.pm_eta, params.mutation_prob)
        for r, engine in enumerate(want_engines):
            want = np.concatenate(oracle_sbx(pa[r], pb[r], lower, upper,
                                             engine, params.sbx_eta,
                                             params.crossover_prob))
            want = oracle_polynomial_mutation_batch(
                want, lower, upper, engine, params.pm_eta,
                params.mutation_prob)
            assert got[r].tobytes() == want.tobytes()
            assert (got_engines[r].bit_generator.state
                    == engine.bit_generator.state)


@pytest.mark.parametrize("name", problem_names())
def test_stacked_evaluation_matches_blocks(name):
    for m in (2, 3, 5, 8, 10):
        problem = get_problem(name, m)
        rng = np.random.default_rng(m)
        blocks = [problem.lower + rng.random((rows, problem.n))
                  * (problem.upper - problem.lower) for rows in (1, 7, 20)]
        stacked = problem.evaluate_batch(np.concatenate(blocks))
        want = np.concatenate([problem.evaluate_batch(b) for b in blocks])
        assert stacked.tobytes() == want.tobytes(), m
