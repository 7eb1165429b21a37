"""Per-trial and per-generation audit of MOEA/D-NUMS against the oracles.

The audit needs no hook in ``src/``: it wraps the names ``run_moead_nums``
looks up in ``prefnorm.algorithms`` (``neighborhoods``, ``de_rand_1`` and
``moead_nums_replacement``) and the problem's ``evaluate_batch``, as the
benchmark's tracer does.  It keeps its own copy of the population
objectives, changed only by the replacements ``moead_nums_replacement``
returns, and re-derives every rule from ``conftest``'s oracles.

On every trial:

* at most ``max_replace`` slots are replaced, all distinct and inside the
  target's neighbourhood;
* each replaced incumbent's AASF, recomputed with ``oracle_aasf`` under its
  own weight and the generation's bounds, is strictly worse than the
  trial's; when fewer than ``max_replace`` slots are replaced, no other
  neighbour's incumbent is strictly worse.

On every generation:

* the audit's copy equals the population the recorder sees;
* ``pp`` bounds are the min and max of the population and its offspring;
* ``bp``/``ba`` lower bounds never rise and equal the minimum over every
  vector evaluated so far; ``bp`` upper bounds are the union's max;
* ``ba`` upper bounds are the maximum over the bounded archive, replayed
  with ``oracle_nondominated_mask``; at m = 2 they also equal
  ``oracle_unbounded_nadir`` over every vector evaluated so far;
* ``no`` bounds stay the identity.

At m >= 3 the bounded archive only approximates the unbounded archive's
maximum: a vector that is non-dominated but extreme in no objective leaves
the archive, and once the extreme vector of some objective is dominated,
that vector can hold the unbounded archive's maximum.  The archive can also
keep a vector that a vector it dropped dominates.
``test_normalization.py`` pins that rule on a hand-made stream.
"""
import numpy as np
import pytest

from conftest import (oracle_aasf, oracle_nondominated_mask,
                      oracle_unbounded_nadir)
from prefnorm import algorithms
from prefnorm.algorithms import AlgorithmParams, run_moead_nums
from prefnorm.core import make_engine
from prefnorm.problems import get_problem, problem_names

KINDS = ("pp", "bp", "ba", "no")


class MoeadAudit:
    """Watches one ``run_moead_nums`` call through wrapped lookups."""

    def __init__(self, problem, z, kind, params):
        self.problem, self.z, self.kind, self.params = (problem, z, kind,
                                                        params)
        # ba's upper bound equals the unbounded archive's maximum at m = 2
        self.unbounded = problem.m == 2
        self.fs = None          # the audit's copy of the population
        self.weights = self.nbs = None
        self.target = self.trial_f = None
        self.batch: list[np.ndarray] = []
        self.ideal = None       # minimum over every vector evaluated
        # every vector evaluated so far that none of them dominates; the
        # non-dominated set of a union equals that of (earlier set + batch)
        self.front = None
        self.archive = None     # the bounded archive, replayed
        self.z_lb = self.z_ub = None
        self.trials = self.generations = 0

    def install(self, monkeypatch):
        neighborhoods = algorithms.neighborhoods
        de_rand_1 = algorithms.de_rand_1
        replacement = algorithms.moead_nums_replacement
        evaluate = self.problem.evaluate_batch

        def watch_neighborhoods(weights, t_size):
            nbs = neighborhoods(weights, t_size)
            self.weights, self.nbs = weights.copy(), nbs.copy()
            return nbs

        def watch_de_rand_1(target_index, *args, **kwargs):
            self.target = int(target_index)
            return de_rand_1(target_index, *args, **kwargs)

        def watch_evaluate(x):
            f = evaluate(x)
            if self.fs is None:
                self.fs = f.copy()
            else:
                self.trial_f = f[0].copy()
            return f

        def watch_replacement(*args, **kwargs):
            won = replacement(*args, **kwargs)
            self.check_trial(np.asarray(won))
            return won

        monkeypatch.setattr(algorithms, "neighborhoods", watch_neighborhoods)
        monkeypatch.setattr(algorithms, "de_rand_1", watch_de_rand_1)
        monkeypatch.setattr(algorithms, "moead_nums_replacement",
                            watch_replacement)
        monkeypatch.setattr(self.problem, "evaluate_batch", watch_evaluate)

    def scores(self, f, slots):
        return oracle_aasf(f, self.z, self.weights[slots], self.z_lb,
                           self.z_ub, self.params.rho)

    def check_trial(self, won):
        nb = self.nbs[self.target]
        cap = self.params.max_replace
        assert won.size <= cap
        assert np.unique(won).size == won.size
        assert np.all((won >= 0) & (won < nb.size))
        beats = self.scores(self.trial_f, nb) < self.scores(self.fs[nb], nb)
        assert beats[won].all(), "replaced an incumbent the trial did not beat"
        if won.size < cap:
            assert beats.sum() == won.size, "left a beaten incumbent in place"
        self.fs[nb[won]] = self.trial_f
        self.batch.append(self.trial_f)
        self.trials += 1

    def replay_archive(self, batch):
        """Maximum over the bounded archive after it takes in ``batch``."""
        pool = (batch if self.archive is None
                else np.vstack([self.archive, batch]))
        survivors = pool[oracle_nondominated_mask(pool)]
        # slot i holds the lowest-index maximizer of objective i
        self.archive = survivors[survivors.argmax(axis=0)]
        return self.archive.max(axis=0)

    def record(self, evals, fs, state):
        assert fs.tobytes() == self.fs.tobytes()
        batch = np.asarray(self.batch) if self.batch else self.fs
        union = np.vstack([self.fs, batch]) if self.batch else self.fs
        lowest = batch.min(axis=0)
        self.ideal = lowest if self.ideal is None else np.minimum(self.ideal,
                                                                  lowest)
        z_lb, z_ub = state.z_lb, state.z_ub
        if self.kind == "pp":
            assert np.array_equal(z_lb, union.min(axis=0))
            assert np.array_equal(z_ub, union.max(axis=0))
        elif self.kind == "no":
            assert np.array_equal(z_lb, np.zeros(self.problem.m))
            assert np.array_equal(z_ub, np.ones(self.problem.m))
        else:
            if self.z_lb is not None:
                assert np.all(z_lb <= self.z_lb), "z_lb rose"
            assert np.array_equal(z_lb, self.ideal)
            if self.kind == "bp":
                assert np.array_equal(z_ub, union.max(axis=0))
            else:
                assert np.array_equal(z_ub, self.replay_archive(batch))
                if self.unbounded:
                    pool = (batch if self.front is None
                            else np.vstack([self.front, batch]))
                    assert np.array_equal(z_ub, oracle_unbounded_nadir(pool))
                    self.front = pool[oracle_nondominated_mask(pool)]
        self.z_lb, self.z_ub = z_lb.copy(), z_ub.copy()
        self.batch = []
        self.generations += 1


def audited_run(monkeypatch, name, m, kind):
    problem = get_problem(name, m)
    z = problem.true_ideal + 0.4 * (problem.true_nadir - problem.true_ideal)
    params = AlgorithmParams()
    audit = MoeadAudit(problem, z, kind, params)
    with monkeypatch.context() as patch:
        audit.install(patch)
        run_moead_nums(problem, z, kind, 12, 240,
                       make_engine(100 * m + KINDS.index(kind)), params,
                       audit.record)
    assert audit.generations == 20
    assert audit.trials == 12 * 19


@pytest.mark.parametrize("name", problem_names())
def test_every_trial_and_generation(name, monkeypatch):
    for m in (2, 3, 5):
        for kind in KINDS:
            audited_run(monkeypatch, name, m, kind)
