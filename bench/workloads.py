"""Campaign configs of the three benchmark workloads.

Every workload is one campaign; ``--seed`` becomes the campaign's base
seed, so the same seed gives the same runs and the same result files.
Each config places a checkpoint on the last generation (the final
population is then the one the last record describes) and at least one
checkpoint off a generation boundary (its ``evals`` must snap forward).
"""
from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    # Generational GA family: sorting, r-dominance, epsilon-clearing and
    # batch variation carry the work; m = 5 raises dominance cost and the
    # frequency of r-dominance cycles.
    "ga-pref": {
        "problems": ["dtlz2:2", "sdtlz2:3", "idtlz1:5"],
        "algorithms": ["nsga2", "rnsga2", "r2nsga2"],
        "normalizations": ["pp", "ba"],
        "runs": 1,
        "budget": 20000,
        "mu": 100,
        "checkpoints": [1000, 2550, 5000, 10000, 15000, 20000],
    },
    # Steady-state MOEA/D-NUMS: single-row DE, mutation, evaluation and
    # AASF replacement per trial; sorting only inside the ba archive.
    "moead": {
        "problems": ["dtlz2:2", "sdtlz2:3", "sdtlz1:4"],
        "algorithms": ["moead-nums"],
        "normalizations": ["pp", "ba"],
        "runs": 1,
        "budget": 6000,
        "mu": 100,
        "checkpoints": [1000, 2550, 4000, 6000],
    },
    # Many cheap runs on one instance per front sampler at the default
    # pf_size: front sampling dominates set-up, and indicator recording,
    # aggregation and result writing are as large as they get.
    "suite-sweep": {
        "problems": ["dtlz1:3", "dtlz5:3", "sdtlz2:3", "idtlz2:3"],
        "algorithms": ["nsga2"],
        "normalizations": ["pp", "bp", "ba", "no"],
        "runs": 31,
        "budget": 600,
        "mu": 20,
        "checkpoints": [50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550,
                        600],
    },
}


def campaign_config(workload: str, seed: int) -> dict:
    """The campaign config of ``workload`` with base seed ``seed``."""
    return dict(WORKLOADS[workload], seed=seed)
