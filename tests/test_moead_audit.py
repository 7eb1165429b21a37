"""Per-trial and per-generation audit of MOEA/D-NUMS against the oracles.

The audit needs no hook in ``src/``: it wraps the names ``run_moead_nums``
looks up in ``prefnorm.algorithms`` (``neighborhoods``,
``moead_nums_replacement`` and ``update_state``), as the benchmark's tracer
does.  The replacement hook records, in call order, the slots each trial of
the generation won.  The ``update_state`` hook sees the generation's final
offspring batch, whose row i holds trial i's objectives, and checks every
recorded trial against that row in turn; each audited call holds one run,
so the hook and the recorder see blocks of one run.  The audit keeps its
own copy of the population objectives, changed only by those replacements, and
re-derives every rule from ``conftest``'s oracles.  The run builds a
generation's trials in one block and rebuilds its stale trials in waves,
each wave one block of every trial flagged from the current one on; the
speculative rows a wave replaces are evaluated and discarded, and never
reach these hooks.

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
        self.wins: list[tuple[int, np.ndarray]] = []
        self.batch = None
        self.ideal = None       # minimum over every vector evaluated
        # every vector evaluated so far that none of them dominates; the
        # non-dominated set of a union equals that of (earlier set + batch)
        self.front = None
        self.archive = None     # the bounded archive, replayed
        self.z_lb = self.z_ub = None
        self.trials = self.generations = 0

    def install(self, monkeypatch):
        neighborhoods = algorithms.neighborhoods
        replacement = algorithms.moead_nums_replacement
        update_state = algorithms.update_state

        def watch_neighborhoods(weights, t_size):
            nbs = neighborhoods(weights, t_size)
            self.weights, self.nbs = weights.copy(), nbs.copy()
            return nbs

        def watch_replacement(*args, **kwargs):
            won = replacement(*args, **kwargs)
            self.wins.append((len(self.wins), np.array(won)))
            return won

        def watch_update_state(state, pop_objs, off_objs=None):
            # a state of one run, updated with blocks of one run
            assert state.z_lb.shape == (1, self.problem.m)
            if off_objs is None:
                self.fs = np.array(pop_objs[0])
            else:
                self.check_generation(np.array(off_objs[0]))
            return update_state(state, pop_objs, off_objs)

        monkeypatch.setattr(algorithms, "neighborhoods", watch_neighborhoods)
        monkeypatch.setattr(algorithms, "moead_nums_replacement",
                            watch_replacement)
        monkeypatch.setattr(algorithms, "update_state", watch_update_state)

    def scores(self, f, slots):
        return oracle_aasf(f, self.z, self.weights[slots], self.z_lb,
                           self.z_ub, self.params.rho)

    def check_generation(self, batch):
        assert len(self.wins) == batch.shape[0] == self.nbs.shape[0], (
            "not one replacement per trial")
        for target, won in self.wins:
            self.check_trial(target, batch[target], won)
        self.wins = []
        self.batch = batch

    def check_trial(self, target, trial_f, won):
        nb = self.nbs[target]
        cap = self.params.max_replace
        assert won.size <= cap
        assert np.unique(won).size == won.size
        assert np.all((won >= 0) & (won < nb.size))
        beats = self.scores(trial_f, nb) < self.scores(self.fs[nb], nb)
        assert beats[won].all(), "replaced an incumbent the trial did not beat"
        if won.size < cap:
            assert beats.sum() == won.size, "left a beaten incumbent in place"
        self.fs[nb[won]] = trial_f
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
        assert len(fs) == 1
        assert fs[0].tobytes() == self.fs.tobytes()
        batch = self.fs if self.batch is None else self.batch
        union = self.fs if self.batch is None else np.vstack([self.fs, batch])
        lowest = batch.min(axis=0)
        self.ideal = lowest if self.ideal is None else np.minimum(self.ideal,
                                                                  lowest)
        z_lb, z_ub = state.z_lb[0], state.z_ub[0]
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
        self.batch = None
        self.generations += 1


def audited_run(monkeypatch, name, m, kind, mu=12, budget=240):
    problem = get_problem(name, m)
    z = problem.true_ideal + 0.4 * (problem.true_nadir - problem.true_ideal)
    params = AlgorithmParams()
    audit = MoeadAudit(problem, z, kind, params)
    with monkeypatch.context() as patch:
        audit.install(patch)
        run_moead_nums(problem, z, [kind], mu, budget,
                       [make_engine(100 * m + KINDS.index(kind))], params,
                       audit.record)
    generations = budget // mu
    assert audit.generations == generations
    assert audit.trials == mu * (generations - 1)
    return audit


@pytest.mark.parametrize("name", problem_names())
def test_every_trial_and_generation(name, monkeypatch):
    for m in (2, 3, 5):
        for kind in KINDS:
            audited_run(monkeypatch, name, m, kind)


@pytest.mark.parametrize("name,m,kind", [("dtlz2", 3, "ba"),
                                         ("sdtlz2", 5, "ba"),
                                         ("dtlz1", 2, "pp")])
def test_proper_subset_neighbourhoods(name, m, kind, monkeypatch):
    # at mu 12 the default neighborhood_t of 20 takes the whole population;
    # at mu 40 each trial sees a proper subset of 20 slots
    audit = audited_run(monkeypatch, name, m, kind, mu=40, budget=400)
    assert audit.nbs.shape == (40, 20)
