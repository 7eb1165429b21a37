"""Print the CPU time each optimizer spends per offspring.

Run from the repository root:

    PYTHONPATH=src python3 scripts/us_per_offspring.py

Each of the four algorithms runs dtlz2 with ``ba`` normalization, mu 100,
5,000 evaluations and the problem's default reference point, at m = 2, 3,
5 and 8, once per seed 1-3 in each of three passes over that grid.  A
run's cost is its ``time.process_time`` seconds divided by the offspring
it evaluated against the budget (every evaluation after the initial
population).  The first table shows, per (m, algorithm), the minimum over
those nine runs in microseconds, so a run slowed by other load on the host
does not count.

The GA family steps a cell's runs together and selects their survivors as
one block, so a cell of many runs costs less per offspring than a run on
its own.  The second table sets, at each m, each GA's one-run figure
beside the cost per offspring of a 31-run cell (seeds 1-31 in one runner
call, the minimum of three passes), as "1 run / 31-run cell".

r2nsga2's per-generation cyclic-dominance warnings are not printed.
"""
import logging
import time

from prefnorm.algorithms import ALGORITHMS, AlgorithmParams
from prefnorm.core import make_engine
from prefnorm.problems import get_problem
from prefnorm.refpoints import default_reference_point

MU, BUDGET, SEEDS, OBJECTIVES = 100, 5_000, (1, 2, 3), (2, 3, 5, 8)
REPEATS, CELL_RUNS = 3, 31
GA = ("nsga2", "rnsga2", "r2nsga2")


def us_per_offspring(name: str, m: int, seeds) -> float:
    """CPU µs per offspring of one runner call on the runs of ``seeds``."""
    problem = get_problem("dtlz2", m)
    evals = []
    start = time.process_time()
    ALGORITHMS[name](problem, default_reference_point("dtlz2", m), "ba", MU,
                     BUDGET, [make_engine(seed) for seed in seeds],
                     AlgorithmParams(),
                     [lambda done, fs, state: evals.append(done)
                      for _ in seeds])
    offspring = len(seeds) * (evals[-1] - MU)
    return 1e6 * (time.process_time() - start) / offspring


def main():
    logging.getLogger("prefnorm").setLevel(logging.ERROR)
    best: dict[tuple[int, str], float] = {}
    cell: dict[tuple[int, str], float] = {}
    # each repeat sweeps the whole grid, so a burst of load on the host
    # slows one pass over a cell, not all of its runs
    for _ in range(REPEATS):
        for m in OBJECTIVES:
            for name in ALGORITHMS:
                for seed in SEEDS:
                    cost = us_per_offspring(name, m, [seed])
                    best[m, name] = min(cost, best.get((m, name), cost))
            for name in GA:
                cost = us_per_offspring(name, m, range(1, CELL_RUNS + 1))
                cell[m, name] = min(cost, cell.get((m, name), cost))
    print("| m | " + " | ".join(ALGORITHMS) + " |")
    print("| --- |" + " --- |" * len(ALGORITHMS))
    for m in OBJECTIVES:
        print(f"| {m} | " + " | ".join(f"{best[m, name]:.1f}"
                                      for name in ALGORITHMS) + " |")
    print()
    print(f"1 run / {CELL_RUNS}-run cell:")
    print("| m | " + " | ".join(GA) + " |")
    print("| --- |" + " --- |" * len(GA))
    for m in OBJECTIVES:
        print(f"| {m} | " + " | ".join(f"{best[m, name]:.1f} / "
                                      f"{cell[m, name]:.1f}"
                                      for name in GA) + " |")


if __name__ == "__main__":
    main()
