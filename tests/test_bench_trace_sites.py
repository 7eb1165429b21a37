"""The benchmark's trace sites still resolve against the package.

``bench/tracing.py`` patches functions at the places their callers look
them up.  A refactor that renames or drops one of them makes
``bench/run.py --trace 1`` crash; these tests catch that in tier-1.  The
file is read and executed as source, so nothing is written under
``bench/``.
"""
import types
from pathlib import Path

import numpy as np

import prefnorm
from prefnorm import algorithms
from prefnorm.algorithms import ALGORITHMS, AlgorithmParams
from prefnorm.core import make_engine
from prefnorm.problems import get_problem, problem_names

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_every_traced_site_resolves():
    tracing = load_tracing()
    sites = tracing.traced_sites(prefnorm)
    assert sites
    for name, owner, attr in sites:
        assert callable(tracing._lookup(owner, attr)), name


def test_every_front_sampler_is_traced():
    # the sites are found by walking the problem classes, so a registry
    # that builds its problems some other way could leave one untraced
    tracing = load_tracing()
    samplers = [tracing._lookup(owner, attr)
                for name, owner, attr in tracing.traced_sites(prefnorm)
                if name == "problems.sample_pf"]
    for name in problem_names():
        sampler = type(get_problem(name, 3)).sample_pf
        assert any(sampler is traced for traced in samplers), name


def test_moead_trial_operators_are_traced_once_per_trial(monkeypatch):
    # a generation builds its trials in one block; a replacement flags each
    # later trial that reads a replaced row, and the pass rebuilds every
    # trial flagged from the first flagged one it reaches on as one block
    # (a wave).  The waves and their rows are replayed here from the draws
    # and the wins, as are the trials a one-row rebuild would have redone
    tracing = load_tracing()
    tracer = tracing.Tracer()
    mu, budget = 12, 240
    seen = {"rebuilt": 0, "waves": 0, "wave_rows": 0}
    draws = algorithms.de_rand_1_draws
    replacement = algorithms.moead_nums_replacement
    neighborhoods = algorithms.neighborhoods

    def watch_neighborhoods(weights, t_size):
        seen["nbs"] = neighborhoods(weights, t_size)
        return seen["nbs"]

    def watch_draws(*args):
        slots, cross = draws(*args)
        nbs = seen["nbs"]
        seen["reads"] = [
            set(nbs[i][slots[i]].tolist())
            | ({i} if not cross[i].all() else set())
            for i in range(len(nbs))]
        seen["touched"], seen["stale"], seen["trial"] = set(), set(), 0
        return slots, cross

    def watch_replacement(*args):
        i, touched, stale = seen["trial"], seen["touched"], seen["stale"]
        reads = seen["reads"]
        if not touched.isdisjoint(reads[i]):
            seen["rebuilt"] += 1
        if i in stale:
            seen["waves"] += 1
            seen["wave_rows"] += len(stale)
            stale.clear()
        won = replacement(*args)
        targets = set(seen["nbs"][i][won].tolist())
        touched.update(targets)
        stale.update(j for j in range(i + 1, len(reads))
                     if not targets.isdisjoint(reads[j]))
        seen["trial"] += 1
        return won

    monkeypatch.setattr(algorithms, "neighborhoods", watch_neighborhoods)
    monkeypatch.setattr(algorithms, "de_rand_1_draws", watch_draws)
    monkeypatch.setattr(algorithms, "moead_nums_replacement",
                        watch_replacement)
    tracer.install(tracing.traced_sites(prefnorm))
    try:
        ALGORITHMS["moead-nums"](get_problem("dtlz2", 3), np.full(3, 0.5),
                                 ["ba"], mu, budget, [make_engine(3)],
                                 AlgorithmParams())
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    generations = budget // mu - 1
    trials, rebuilt = mu * generations, seen["rebuilt"]
    waves, wave_rows = seen["waves"], seen["wave_rows"]
    assert 0 < rebuilt < trials
    assert 0 < waves < rebuilt
    assert calls["algorithms.moead_nums_replacement"] == trials
    for name in ("variation.de_rand_1", "variation.polynomial_mutation"):
        assert calls[name] == generations + waves, name
    assert calls["problems.evaluate_batch"] == 1 + generations + waves
    assert tracer.rows == budget + wave_rows


def test_a_cell_updates_and_records_its_runs_as_one_block():
    # a group's runs, of every kind and for every runner, share one state
    # update per generation and one indicator call per checkpoint; only its
    # ba runs feed an archive
    tracing = load_tracing()
    tracer = tracing.Tracer()
    runs, generations, checkpoints = 3, 10, [36, 50, 120]
    kinds = ["pp", "ba"]
    config = prefnorm.harness.validate_config({
        "problems": ["dtlz2:2"], "algorithms": ["nsga2", "moead-nums"],
        "normalizations": kinds, "runs": runs, "budget": 120, "mu": 12,
        "checkpoints": checkpoints, "pf_size": 100})
    tracer.install(tracing.traced_sites(prefnorm))
    try:
        prefnorm.harness.execute_campaign(config)
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    groups = 2
    assert calls["normalization.update_state"] == groups * generations
    assert (calls["normalization.update_bounded_archive_objs"]
            == groups * generations)
    assert calls["algorithms.runner"] == groups
    assert calls["indicators.igd_plus_c"] == groups * len(checkpoints)
    assert calls["indicators.bound_errors"] == 3 * groups * len(checkpoints)
