"""Measure how far the bounded archive's nadir estimate is from an exact one.

Run from the repository root:

    PYTHONPATH=src python3 scripts/ba_gap.py

The ``ba`` strategy estimates the nadir point as the maximum over a bounded
archive of at most m vectors.  From three objectives on, that maximum only
approximates the maximum over the unbounded archive of every non-dominated
vector seen so far.  This script measures the gap on a fixed small grid:
dtlz2 at m = 3 and 5, the four algorithms with ``ba``, mu 100, 10,000
evaluations and seeds 1-3.

A wrapper around the ``update_state`` that ``prefnorm.algorithms`` calls
sees each generation's vectors: the initial population, then every
offspring batch.  Each runner call holds one seed, so the state and the
vectors it sees are blocks of one run.  For moead-nums those are the trials that count against
the budget; speculative rows it evaluates and discards never get there.
The script keeps the unbounded non-dominated archive of the same vectors.
Per (m, algorithm) it prints:

1. the generations, the initial one included, where ``ba``'s ``z_ub``
   differs from the unbounded archive's maximum, out of all generations;
2. the mean over seeds of e_nadir at the last generation, for ``ba``'s
   ``z_ub`` and for the unbounded archive's maximum.

r2nsga2's per-generation cyclic-dominance warnings are not printed.
"""
import logging
import time

import numpy as np

from prefnorm import algorithms
from prefnorm.algorithms import ALGORITHMS, AlgorithmParams
from prefnorm.core import make_engine
from prefnorm.indicators import e_nadir
from prefnorm.normalization import TrueScaler
from prefnorm.problems import get_problem
from prefnorm.refpoints import default_reference_point

MU, BUDGET, SEEDS = 100, 10_000, (1, 2, 3)


def dominated_by(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask over the rows of ``a``: dominated by at least one row of ``b``."""
    le = (b[None, :, :] <= a[:, None, :]).all(axis=-1)
    lt = (b[None, :, :] < a[:, None, :]).any(axis=-1)
    return (le & lt).any(axis=1)


class GapWatch:
    """Counts the generations where ``ba`` and the unbounded maximum differ."""

    def __init__(self, m: int):
        self.front = np.empty((0, m))
        self.differ = self.generations = 0
        self.z_ub = None

    def see(self, z_ub, pop_objs, off_objs=None):
        batch = pop_objs if off_objs is None else off_objs
        batch = batch[~dominated_by(batch, batch)]
        batch = batch[~dominated_by(batch, self.front)]
        self.front = np.vstack([self.front[~dominated_by(self.front, batch)],
                                batch])
        self.z_ub = z_ub.copy()
        self.differ += not np.array_equal(self.z_ub, self.front.max(axis=0))
        self.generations += 1


def measure(name: str, m: int, seed: int) -> GapWatch:
    problem = get_problem("dtlz2", m)
    watch = GapWatch(m)
    update_state = algorithms.update_state

    def watched(state, pop_objs, off_objs=None):
        update_state(state, pop_objs, off_objs)
        watch.see(state.z_ub[0], np.asarray(pop_objs)[0],
                  None if off_objs is None else off_objs[0])
        return state

    algorithms.update_state = watched
    try:
        ALGORITHMS[name](problem, default_reference_point("dtlz2", m), ["ba"],
                         MU, BUDGET, [make_engine(seed)], AlgorithmParams())
    finally:
        algorithms.update_state = update_state
    return watch


def main():
    logging.getLogger("prefnorm").setLevel(logging.ERROR)
    print("| m | algorithm | generations where `z_ub` != unbounded max "
          "| e_nadir, `ba` | e_nadir, unbounded | seconds |")
    print("| --- | --- | --- | --- | --- | --- |")
    for m in (3, 5):
        problem = get_problem("dtlz2", m)
        scaler = TrueScaler(ideal=problem.true_ideal, nadir=problem.true_nadir)
        for name in ALGORITHMS:
            start = time.perf_counter()
            watches = [measure(name, m, seed) for seed in SEEDS]
            differ = sum(w.differ for w in watches)
            total = sum(w.generations for w in watches)
            bounded = np.mean([e_nadir(w.z_ub, scaler) for w in watches])
            exact = np.mean([e_nadir(w.front.max(axis=0), scaler)
                             for w in watches])
            print(f"| {m} | {name} | {differ}/{total} | {bounded:.3g} "
                  f"| {exact:.3g} | {time.perf_counter() - start:.1f} |")


if __name__ == "__main__":
    main()
