"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single summary line (visible with ``pytest -s``) and
the pytest -v report gives the one-line pass/fail verdict per criterion.
The campaign-level criteria execute real optimizer runs with fixed seeds,
so their outcomes are deterministic; the stated runtime caps are asserted
where a criterion includes one.
"""
import math
import time

import numpy as np
import pytest

from prefnorm.harness import (ExperimentConfig, RunTrace, execute_campaign,
                              friedman_ranks_from_means, rank_from_results,
                              validate_config, write_results)
from prefnorm.indicators import build_roi_reference_set, igd_plus_c
from prefnorm.normalization import (NormalizationState, TrueScaler,
                                    update_state)
from prefnorm.problems import get_problem
from prefnorm.ranking import (domination_matrix, nondominated_sort,
                              r_domination_matrix)
from prefnorm.refpoints import default_reference_point

DESK_RAW = {
    "problems": ["dtlz2:2", "sdtlz2:2"],
    "algorithms": ["nsga2", "rnsga2"],
    "normalizations": ["bp", "ba"],
    "runs": 3,
    "budget": 3000,
    "mu": 40,
    "seed": 11,
    "checkpoints": [1000, 2000, 3000],
    "pf_size": 1000,
}


@pytest.fixture(scope="module")
def desk_campaign():
    config = validate_config(DESK_RAW)
    traces = execute_campaign(config, workers=1)
    return config, traces


def test_criterion_01_bounded_archive_matches_unbounded_oracle():
    """1000 non-dominated streams per m in 2..6, exact equality, <= 2 min."""
    rng = np.random.default_rng(2026)
    start = time.time()
    checked = 0
    block = 25  # streams fed as one block of runs: <= 12 MB of points
    for m in range(2, 7):
        for _ in range(0, 1000, block):
            gauss = np.abs(np.stack([rng.standard_normal((10000, m))
                                     for _ in range(block)]))
            points = gauss / np.linalg.norm(gauss, axis=2, keepdims=True)
            # the ba state feeds each batch to its archive and reads the
            # nadir estimate off it as z_ub, one row per stream
            state = NormalizationState(["ba"] * block, m)
            oracle = np.full((block, m), -np.inf)
            for lo in range(0, 10000, 100):
                batch = points[:, lo:lo + 100]
                update_state(state, batch)
                oracle = np.maximum(oracle, batch.max(axis=1))
                assert np.array_equal(state.z_ub, oracle)
                checked += block
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"criterion 1: PASS — {checked} batch updates equal the "
          f"unbounded oracle exactly in {elapsed:.0f}s")


def test_criterion_02_best_so_far_lower_bound_never_rises(desk_campaign):
    """BP/BA z_lb is componentwise non-increasing at every checkpoint."""
    config, traces = desk_campaign
    violations = 0
    runs = 0
    for trace in traces:
        if trace.normalization not in ("bp", "ba"):
            continue
        runs += 1
        for prev, cur in zip(trace.records, trace.records[1:]):
            if not np.all(cur["z_lb"] <= prev["z_lb"]):
                violations += 1
    assert runs > 0
    assert violations == 0
    print(f"criterion 2: PASS — 0 violations across {runs} BP/BA runs")


def test_criterion_03_igd_plus_c_is_weakly_pareto_compliant():
    """10^4 (X, Y) pairs with X weakly dominating Y, m in {2, 3, 4}."""
    rng = np.random.default_rng(31)
    pairs_per_m = {2: 3334, 3: 3333, 4: 3333}
    total = 0
    for m, pairs in pairs_per_m.items():
        problem = get_problem("dtlz2", m)
        pf = problem.sample_pf(500, np.random.default_rng(m))
        z = default_reference_point("dtlz2", m)
        scaler = TrueScaler(ideal=problem.true_ideal,
                            nadir=problem.true_nadir)
        roi = build_roi_reference_set(pf, z, 0.1, scaler)
        for _ in range(pairs):
            size = int(rng.integers(1, 26))
            xs = rng.random((size, m)) * 1.5
            ys = xs + rng.random((size, m)) * 0.5
            assert igd_plus_c(xs, roi) <= igd_plus_c(ys, roi) + 1e-12
            total += 1
    assert total == 10000
    print(f"criterion 3: PASS — igd_plus_c(X) <= igd_plus_c(Y) + 1e-12 "
          f"on {total} weakly dominating pairs")


def test_criterion_04_sorting_matches_brute_force():
    """500 random populations (N <= 500, m <= 6), exact partitions."""

    def brute_force_fronts(objs):
        less_equal = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
        less = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
        dom = less_equal & less
        remaining = np.ones(len(objs), dtype=bool)
        fronts = []
        while remaining.any():
            idx = np.flatnonzero(remaining)
            sub = dom[np.ix_(idx, idx)]
            level = idx[~sub.any(axis=0)]
            fronts.append(sorted(level.tolist()))
            remaining[level] = False
        return fronts

    rng = np.random.default_rng(404)
    for trial in range(500):
        n = int(rng.integers(2, 501))
        m = int(rng.integers(2, 7))
        if trial % 2:
            objs = rng.random((n, m))
        else:
            # quantized values force ties and duplicate rows
            objs = rng.integers(0, 4, size=(n, m)).astype(float)
        levels = nondominated_sort(objs[None])[0]
        got = [np.flatnonzero(levels == k).tolist()
               for k in range(levels.max() + 1)]
        assert got == brute_force_fronts(objs)
    print("criterion 4: PASS — 500 populations match the brute-force "
          "partition exactly")


def test_criterion_05_range_scaling_recovery_on_sdtlz2():
    """R-NSGA-II on SDTLZ2 m=2: BA mean < 0.02, NO mean > 0.05."""
    config = validate_config({
        "problems": ["sdtlz2:2"],
        "algorithms": ["rnsga2"],
        "normalizations": ["ba", "no"],
        "runs": 31,
        "budget": 50000,
        "mu": 100,
        "seed": 1,
        "checkpoints": [50000],
    })
    start = time.time()
    traces = execute_campaign(config, workers=1)
    elapsed = time.time() - start
    finals = {}
    for trace in traces:
        finals.setdefault(trace.normalization, []).append(
            trace.records[-1]["igd_plus_c"])
    mean_ba = float(np.mean(finals["ba"]))
    mean_no = float(np.mean(finals["no"]))
    assert mean_ba < mean_no
    assert mean_ba < 0.02
    assert mean_no > 0.05
    assert elapsed < 600.0
    print(f"criterion 5: PASS — mean IGD+-C BA {mean_ba:.4f} < 0.02, "
          f"NO {mean_no:.4f} > 0.05 ({elapsed:.0f}s)")


def test_criterion_06_focused_search_degrades_nadir_estimate():
    """DTLZ2 m=2 at 50k: NSGA-II e_nadir < 0.01, R-NSGA-II(PP) >= 5x."""
    config = validate_config({
        "problems": ["dtlz2:2"],
        "algorithms": ["nsga2", "rnsga2"],
        "normalizations": ["pp"],
        "runs": 31,
        "budget": 50000,
        "mu": 100,
        "seed": 1,
        "checkpoints": [50000],
    })
    start = time.time()
    traces = execute_campaign(config, workers=1)
    elapsed = time.time() - start
    finals = {}
    for trace in traces:
        finals.setdefault(trace.algorithm, []).append(
            trace.records[-1]["e_nadir"])
    mean_plain = float(np.mean(finals["nsga2"]))
    mean_focused = float(np.mean(finals["rnsga2"]))
    assert mean_plain < 0.01
    assert mean_focused >= 5.0 * mean_plain
    assert elapsed < 600.0
    print(f"criterion 6: PASS — e_nadir NSGA-II {mean_plain:.4f} < 0.01, "
          f"R-NSGA-II(PP) {mean_focused:.4f} >= 5x ({elapsed:.0f}s)")


def test_criterion_07_exact_ideal_only_on_boundary_zeroable_fronts():
    """MOEA/D-NUMS+BA: e_ideal hits 0 on SDTLZ1 m=4 within 5k evals in
    >= 90% of runs, but not on IDTLZ1 m=4 within 50k in >= 50%."""
    reach = validate_config({
        "problems": ["sdtlz1:4"],
        "algorithms": ["moead-nums"],
        "normalizations": ["ba"],
        "runs": 31,
        "budget": 5000,
        "mu": 100,
        "seed": 1,
        "checkpoints": [5000],
    })
    traces = execute_campaign(reach, workers=1)
    zeros = sum(1 for t in traces
                if t.records[-1]["e_ideal"] == 0.0)
    assert zeros >= math.ceil(0.9 * 31)

    stall = validate_config({
        "problems": ["idtlz1:4"],
        "algorithms": ["moead-nums"],
        "normalizations": ["ba"],
        "runs": 31,
        "budget": 50000,
        "mu": 100,
        "seed": 1,
        "checkpoints": [50000],
    })
    traces = execute_campaign(stall, workers=1)
    nonzero = sum(1 for t in traces
                  if t.records[-1]["e_ideal"] != 0.0)
    assert nonzero >= math.ceil(0.5 * 31)
    print(f"criterion 7: PASS — SDTLZ1 zeros {zeros}/31 (>=28), "
          f"IDTLZ1 non-zeros {nonzero}/31 (>=16)")


def test_criterion_08_r_dominance_limit_behavior():
    """delta=1 equals the Pareto graph; delta=0 orders incomparable pairs
    by reference distance.  100 populations, exhaustive pairs."""
    rng = np.random.default_rng(88)
    for trial in range(100):
        m = 2 + trial % 3
        n = 30
        objs = rng.random((n, m))
        z = rng.random(m)
        dists = np.linalg.norm(objs - z, axis=1)
        pareto = domination_matrix(objs)

        strict = r_domination_matrix(objs, dists, 1.0)
        assert np.array_equal(strict, pareto)

        blended = r_domination_matrix(objs, dists, 0.0)
        incomparable = ~pareto & ~pareto.T
        np.fill_diagonal(incomparable, False)
        expected = pareto | (incomparable & (dists[:, None] < dists[None, :]))
        assert np.array_equal(blended, expected)
    print("criterion 8: PASS — 100 populations, delta limits match the "
          "Pareto graph and the distance ordering")


def test_criterion_09_campaign_replay_is_byte_identical(desk_campaign,
                                                        tmp_path):
    """A fresh execution of the desk campaign reproduces every CSV byte."""
    config, traces = desk_campaign
    first = tmp_path / "first"
    second = tmp_path / "second"
    write_results(traces, config, first)
    replay = execute_campaign(validate_config(DESK_RAW), workers=1)
    write_results(replay, config, second)
    compared = 0
    for path in sorted(first.rglob("*")):
        if path.is_dir():
            continue
        rel = path.relative_to(first)
        assert (second / rel).read_bytes() == path.read_bytes()
        compared += 1
    assert compared >= 2 * len(traces) + 5
    print(f"criterion 9: PASS — {compared} files byte-identical on replay")


def test_criterion_10_friedman_matches_hand_computed_tables(tmp_path):
    """Synthetic 4-treatment x 7-problem tables, exact midrank agreement."""
    plain = {
        "p1": {"A": 0.1, "B": 0.2, "C": 0.3, "D": 0.4},
        "p2": {"A": 0.1, "B": 0.2, "C": 0.3, "D": 0.4},
        "p3": {"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1},
        "p4": {"A": 0.1, "B": 0.1, "C": 0.3, "D": 0.4},
        "p5": {"A": 0.5, "B": 0.5, "C": 0.5, "D": 0.5},
        "p6": {"A": 0.2, "B": 0.1, "C": 0.4, "D": 0.3},
        "p7": {"A": 0.3, "B": 0.4, "C": 0.1, "D": 0.1},
    }
    assert friedman_ranks_from_means(plain) == {
        "A": 15 / 7, "B": 16 / 7, "C": 19 / 7, "D": 20 / 7}

    tied = {
        "q1": {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0},
        "q2": {"A": 2.0, "B": 2.0, "C": 2.0, "D": 2.0},
        "q3": {"A": 5.0, "B": 1.0, "C": 1.0, "D": 1.0},
        "q4": {"A": 1.0, "B": 1.0, "C": 2.0, "D": 2.0},
        "q5": {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0},
        "q6": {"A": 1.0, "B": 3.0, "C": 3.0, "D": 4.0},
        "q7": {"A": 2.0, "B": 1.0, "C": 4.0, "D": 3.0},
    }
    assert friedman_ranks_from_means(tied) == {
        "A": 16 / 7, "B": 14.5 / 7, "C": 19.5 / 7, "D": 20 / 7}

    # a campaign's rank_summary.csv, as `prefnorm rank` reads it back,
    # reproduces the first table when every treatment mean comes from
    # single-run records
    traces = []
    algorithms = {"A": ("nsga2", "pp"), "B": ("nsga2", "ba"),
                  "C": ("rnsga2", "pp"), "D": ("rnsga2", "ba")}
    label_of = {}
    for p_idx, (prob, row) in enumerate(sorted(plain.items())):
        name = f"dtlz{p_idx + 1}"
        for treatment, value in row.items():
            algorithm, kind = algorithms[treatment]
            label_of[f"{algorithm}-{kind}"] = treatment
            traces.append(RunTrace(
                problem=name, m=3, algorithm=algorithm, normalization=kind,
                run_index=0, seed=0,
                records=[{"checkpoint": 1000, "evals": 1000,
                          "igd_plus_c": value, "e_ideal": 0.0,
                          "e_nadir": 0.0, "ore": 0.0, "z_lb": np.zeros(3),
                          "z_ub": np.ones(3)}],
                final_objs=np.zeros((1, 3))))
    config = ExperimentConfig(
        problems=[(f"dtlz{i}", 3) for i in range(1, 8)],
        algorithms=["nsga2", "rnsga2"], normalizations=["pp", "ba"],
        runs=1, budget=1000, checkpoints=(1000,))
    write_results(traces, config, tmp_path)
    avg = rank_from_results(tmp_path, "dtlz", 1000)
    relabeled = {label_of[k]: v for k, v in avg.items()}
    assert relabeled == {"A": 15 / 7, "B": 16 / 7, "C": 19 / 7, "D": 20 / 7}
    print("criterion 10: PASS — hand-computed tables including midranks "
          "match exactly")
