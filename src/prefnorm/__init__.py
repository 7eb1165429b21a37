"""Preference-based multi-objective optimization with run-time normalization.

Building blocks: reference-point variants of NSGA-II, an MOEA/D variant
with preference-shifted weights, a plain NSGA-II baseline, four bound
estimation strategies, the DTLZ / scaled DTLZ / inverted DTLZ families,
region-of-interest quality indicators, and a seeded campaign harness.
"""

__version__ = "0.1.0"

from .algorithms import (ALGORITHMS, AlgorithmParams, epsilon_clear,
                         run_moead_nums, run_nsga2, run_r2nsga2, run_rnsga2,
                         weighted_ref_distance)
from .core import derive_run_seed, make_engine
from .harness import (DEFAULT_CHECKPOINTS, ConfigError, ExperimentConfig,
                      RunTrace, execute_campaign, friedman_ranks_from_means,
                      load_config, rank_from_results, validate_config,
                      write_results)
from .indicators import (DEFAULT_ROI_RADIUS, RoiReferenceSet,
                         build_roi_reference_set, e_ideal, e_nadir,
                         igd_plus_c, ore)
from .normalization import (KINDS, NormalizationState, TrueScaler,
                            normalize_value, update_state)
from .problems import Problem, get_problem, problem_names
from .ranking import crowding_distance, nondominated_mask, nondominated_sort
from .refpoints import default_reference_point
from .weights import das_dennis_lattice, nums_shift, uniform_simplex_set

__all__ = [
    "ALGORITHMS", "AlgorithmParams", "ConfigError", "DEFAULT_CHECKPOINTS",
    "DEFAULT_ROI_RADIUS", "ExperimentConfig", "KINDS",
    "NormalizationState", "Problem", "RoiReferenceSet", "RunTrace",
    "TrueScaler", "build_roi_reference_set",
    "crowding_distance", "das_dennis_lattice", "default_reference_point",
    "derive_run_seed", "e_ideal", "e_nadir",
    "epsilon_clear", "execute_campaign",
    "friedman_ranks_from_means", "get_problem", "igd_plus_c", "load_config",
    "make_engine", "nondominated_mask", "nondominated_sort",
    "normalize_value", "nums_shift", "ore",
    "problem_names", "rank_from_results",
    "run_moead_nums", "run_nsga2", "run_r2nsga2", "run_rnsga2",
    "uniform_simplex_set", "update_state",
    "validate_config", "weighted_ref_distance",
    "write_results",
]
