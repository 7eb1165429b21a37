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
    # a generation builds its trials in one block, then rebuilds alone each
    # trial that reads a row an earlier trial of the generation replaced;
    # the rebuilt trials are replayed here from the draws and the wins
    tracing = load_tracing()
    tracer = tracing.Tracer()
    mu, budget = 12, 240
    seen = {"rebuilt": 0}
    draws = algorithms.de_rand_1_draws
    replacement = algorithms.moead_nums_replacement
    neighborhoods = algorithms.neighborhoods

    def watch_neighborhoods(weights, t_size):
        seen["nbs"] = neighborhoods(weights, t_size)
        return seen["nbs"]

    def watch_draws(*args):
        seen["slots"], seen["cross"] = draws(*args)
        seen["touched"], seen["trial"] = set(), 0
        return seen["slots"], seen["cross"]

    def watch_replacement(*args):
        won = replacement(*args)
        i, touched = seen["trial"], seen["touched"]
        nb = seen["nbs"][i]
        donors = nb[seen["slots"][i]].tolist()
        if (not touched.isdisjoint(donors)
                or (i in touched and not seen["cross"][i].all())):
            seen["rebuilt"] += 1
        touched.update(nb[won].tolist())
        seen["trial"] += 1
        return won

    monkeypatch.setattr(algorithms, "neighborhoods", watch_neighborhoods)
    monkeypatch.setattr(algorithms, "de_rand_1_draws", watch_draws)
    monkeypatch.setattr(algorithms, "moead_nums_replacement",
                        watch_replacement)
    tracer.install(tracing.traced_sites(prefnorm))
    try:
        ALGORITHMS["moead-nums"](get_problem("dtlz2", 3), np.full(3, 0.5),
                                 "ba", mu, budget, make_engine(3),
                                 AlgorithmParams())
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    generations = budget // mu - 1
    trials, rebuilt = mu * generations, seen["rebuilt"]
    assert 0 < rebuilt < trials
    assert calls["algorithms.moead_nums_replacement"] == trials
    for name in ("variation.de_rand_1", "variation.polynomial_mutation"):
        assert calls[name] == generations + rebuilt, name
    assert calls["problems.evaluate_batch"] == 1 + generations + rebuilt
    assert tracer.rows == budget + rebuilt
