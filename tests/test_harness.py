"""Tests for the campaign harness.

Config validation and loading, seed derivation, campaign execution and
checkpoint alignment, Friedman rank aggregation, and the on-disk result
layout including byte-for-byte reproducibility.
"""
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from prefnorm import harness
from prefnorm.core import derive_run_seed
from prefnorm.harness import (DEFAULT_CHECKPOINTS, SUITES, ConfigError,
                              ExperimentConfig, RunTrace, cell_id,
                              execute_campaign, friedman_ranks_from_means,
                              load_config, rank_from_results,
                              validate_config, write_results)
from prefnorm.refpoints import default_reference_point


def minimal_raw(**overrides):
    raw = {
        "problems": ["dtlz2:2"],
        "algorithms": ["nsga2"],
        "normalizations": ["ba"],
    }
    raw.update(overrides)
    return raw


def tiny_raw(**overrides):
    raw = minimal_raw(
        problems=["dtlz2:2"],
        algorithms=["nsga2", "rnsga2"],
        runs=2, budget=200, mu=20, seed=5,
        checkpoints=[100, 200], pf_size=200,
    )
    raw.update(overrides)
    return raw


@pytest.fixture(scope="module")
def tiny_campaign():
    config = validate_config(tiny_raw())
    traces = execute_campaign(config, workers=1)
    return config, traces


class TestValidateConfig:

    def test_defaults(self):
        config = validate_config(minimal_raw())
        assert config.problems == [("dtlz2", 2)]
        assert config.runs == 31
        assert config.budget == 50000
        assert config.mu == 100
        assert config.seed == 1
        assert config.checkpoints == DEFAULT_CHECKPOINTS
        assert config.roi_radius == 0.1
        assert config.pf_size == 10000
        assert config.reference_setting == "balanced"

    def test_problem_mapping_form(self):
        config = validate_config(minimal_raw(
            problems=[{"name": "sdtlz1", "m": 3}, "idtlz2:4"]))
        assert config.problems == [("sdtlz1", 3), ("idtlz2", 4)]

    def test_problem_mapping_rejects_unknown_keys(self):
        # a per-problem reference point belongs in reference_points; inside
        # a problem entry it would be dropped and the run would use the
        # default point
        raw = minimal_raw(problems=[{"name": "dtlz2", "m": 3,
                                     "reference_point": [0.1, 0.2, 0.3]},
                                    {"name": "dtlz2", "m": 2, 7: "x"}])
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        assert str(info.value).splitlines() == [
            "problems[0].reference_point: unknown key",
            "problems[1].7: unknown key"]

    def test_yaml_false_means_no_normalization(self):
        config = validate_config(minimal_raw(normalizations=["pp", False]))
        assert config.normalizations == ["pp", "no"]

    @pytest.mark.parametrize("raw,fragment", [
        (minimal_raw(extra=1), "unknown key"),
        (minimal_raw(problems=[]), "problems"),
        ({"algorithms": ["nsga2"], "normalizations": ["no"]}, "problems"),
        (minimal_raw(problems=["nope:2"]), "unknown problem"),
        (minimal_raw(problems=["dtlz2:x"]), "problems[0].m"),
        (minimal_raw(problems=["dtlz2:1"]), "problems[0].m"),
        (minimal_raw(problems=[7]), "problems[0]"),
        (minimal_raw(algorithms=["spea2"]), "unknown algorithm"),
        (minimal_raw(algorithms=[]), "algorithms"),
        (minimal_raw(normalizations=["zz"]), "unknown kind"),
        (minimal_raw(normalizations=[]), "normalizations"),
        (minimal_raw(runs=0), "runs"),
        (minimal_raw(runs=True), "runs"),
        (minimal_raw(budget=0), "budget"),
        (minimal_raw(mu=3), "mu"),
        (minimal_raw(mu=7), "even"),
        (minimal_raw(seed=-1), "seed"),
        (minimal_raw(checkpoints=[3000, 1000]), "ascending"),
        (minimal_raw(checkpoints=[]), "checkpoints"),
        (minimal_raw(checkpoints=["a"]), "checkpoints[0]"),
        (minimal_raw(checkpoints=[60000]), "exceeds budget"),
        (minimal_raw(roi_radius=0), "roi_radius"),
        (minimal_raw(roi_radius="wide"), "roi_radius"),
        (minimal_raw(pf_size=5), "pf_size"),
        (minimal_raw(reference_setting="odd"), "unknown setting"),
        (minimal_raw(reference_points={"dtlz2:2": "mid"}),
         "reference_points"),
        (minimal_raw(reference_points={"dtlz2:2": [0.1, 0.2, 0.3]}),
         "expected 2 values"),
        (minimal_raw(params={"zeta": 1.0}), "unknown parameter"),
        (minimal_raw(params=[1]), "params"),
        # the worker count is a run option, not part of a campaign
        pytest.param(minimal_raw(workers=0), "workers: unknown key",
                     id="raw29-workers"),
        (minimal_raw(problems=["dtlz2:2", "dtlz2:2"]),
         "problems[1]: duplicate problem dtlz2:2"),
        (minimal_raw(problems=["dtlz2:3", "dtlz2:2", {"name": "dtlz2",
                                                     "m": 2}]),
         "problems[2]: duplicate problem dtlz2:2"),
        (minimal_raw(algorithms=["nsga2", "rnsga2", "nsga2"]),
         "algorithms[2]: duplicate algorithm 'nsga2'"),
        (minimal_raw(normalizations=["pp", "pp"]),
         "normalizations[1]: duplicate kind 'pp'"),
        (minimal_raw(normalizations=["no", False]),
         "normalizations[1]: duplicate kind 'no'"),
    ])
    def test_rejects(self, raw, fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            validate_config(raw)

    @pytest.mark.parametrize("raw,fragment", [
        (minimal_raw(checkpoints=[200, 200, 400]), "strictly ascending"),
        (minimal_raw(roi_radius=True), "roi_radius"),
        (minimal_raw(reference_points={"dtlz2:2": [True, 0.5]}),
         "reference_points.dtlz2:2: expected a list of numbers"),
        (minimal_raw(roi_radius=float("nan")), "roi_radius"),
        (minimal_raw(roi_radius=float("inf")), "roi_radius"),
        (minimal_raw(reference_points={"dtlz2:2": [float("nan"), 0.5]}),
         "reference_points.dtlz2:2: expected a list of numbers"),
        (minimal_raw(reference_points={"dtlz2:2": [0.5, float("-inf")]}),
         "reference_points.dtlz2:2: expected a list of numbers"),
        (minimal_raw(reference_points={"dtlz9:2": [0.5, 0.5]}),
         "reference_points.dtlz9:2: not a problem of this campaign"),
        (minimal_raw(reference_points={"dtlz2:2": [0.5, 0.5],
                                       "dtlz2:3": [0.5, 0.5, 0.5]}),
         "reference_points.dtlz2:3: not a problem of this campaign"),
        (minimal_raw(params={"max_replace": 0}), "params.max_replace"),
        (minimal_raw(params={"max_replace": 1.5}), "params.max_replace"),
        (minimal_raw(params={"neighborhood_t": True}),
         "params.neighborhood_t"),
        (minimal_raw(params={"sbx_eta": "abc"}), "params.sbx_eta"),
        (minimal_raw(params={"de_f": True}), "params.de_f"),
        (minimal_raw(params={"tau": float("nan")}), "params.tau"),
        (minimal_raw(params={"rho": None}), "params.rho"),
        (minimal_raw(roi_radius=10**400), "roi_radius"),
        (minimal_raw(reference_points={"dtlz2:2": [0.5, -10**400]}),
         "reference_points.dtlz2:2: expected a list of numbers"),
        (minimal_raw(params={"de_f": 10**400}), "params.de_f"),
        (minimal_raw(params={"tau": 2.0}), "params.tau: must be (0, 1]"),
        (minimal_raw(params={"delta": -1}), "params.delta: must be [0, 1]"),
        (minimal_raw(params={"neighborhood_t": 2}),
         "params.neighborhood_t: must be >= 4"),
        (minimal_raw(params={"tau": 0.0}), "params.tau: must be (0, 1]"),
        (minimal_raw(params={"delta": 1.5}), "params.delta: must be [0, 1]"),
        (minimal_raw(params={"rho": 0}), "params.rho: must be > 0"),
        (minimal_raw(params={"neighborhood_t": 3}),
         "params.neighborhood_t: must be >= 4"),
        (minimal_raw(params={"sbx_eta": -1}), "params.sbx_eta: must be >= 0"),
        (minimal_raw(params={"sbx_eta": -0.5}),
         "params.sbx_eta: must be >= 0"),
        (minimal_raw(params={"pm_eta": -1}), "params.pm_eta: must be >= 0"),
        (minimal_raw(params={"pm_eta": -0.5}), "params.pm_eta: must be >= 0"),
        (minimal_raw(params={"epsilon_clear": -0.05}),
         "params.epsilon_clear: must be >= 0"),
        (minimal_raw(params={"crossover_prob": 1.5}),
         "params.crossover_prob: must be [0, 1]"),
        (minimal_raw(params={"crossover_prob": -1}),
         "params.crossover_prob: must be [0, 1]"),
        (minimal_raw(params={"mutation_prob": 1.5}),
         "params.mutation_prob: must be [0, 1]"),
        (minimal_raw(params={"mutation_prob": -1}),
         "params.mutation_prob: must be [0, 1]"),
        (minimal_raw(params={"de_cr": 1.5}), "params.de_cr: must be [0, 1]"),
        (minimal_raw(params={"de_cr": -1}), "params.de_cr: must be [0, 1]"),
        # a YAML mapping may mix int and str keys; each is still reported
        ({**minimal_raw(), 1: 2, "x": 3}, "1: unknown key"),
        (minimal_raw(params={1: 2, "tau": 0.3}),
         "params.1: unknown parameter"),
        (minimal_raw(reference_points={1: [0.5, 0.5], "x": [1, 2]}),
         "reference_points.1: not a problem of this campaign"),
    ])
    def test_rejects_malformed_values(self, raw, fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            validate_config(raw)

    def test_accepts_typed_params(self):
        params = {"sbx_eta": 20, "de_f": 0.7, "mutation_prob": None,
                  "neighborhood_t": 10, "max_replace": 1}
        config = validate_config(minimal_raw(params=params))
        assert config.params == params

    @pytest.mark.parametrize("params", [
        {"tau": 1.0, "delta": 0.0, "neighborhood_t": 4, "rho": 1e-12},
        {"tau": 1e-9, "delta": 1.0, "rho": 10**6},
        {"sbx_eta": 0, "pm_eta": 0.0},
        {"epsilon_clear": 0, "crossover_prob": 0, "mutation_prob": 1,
         "de_cr": 0.0},
        {"epsilon_clear": 0.0, "crossover_prob": 1.0, "mutation_prob": 0.0,
         "de_cr": 1},
    ])
    def test_accepts_params_at_their_bounds(self, params):
        assert validate_config(minimal_raw(params=params)).params == params

    def test_error_messages_name_known_choices(self):
        with pytest.raises(ConfigError, match="nsga2"):
            validate_config(minimal_raw(algorithms=["spea2"]))
        with pytest.raises(ConfigError, match="ba"):
            validate_config(minimal_raw(normalizations=["zz"]))

    def test_collects_all_errors(self):
        raw = minimal_raw(runs=0, mu=3, algorithms=["spea2"])
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        lines = str(err.value).splitlines()
        assert len(lines) == 3

    def test_population_must_cover_two_m(self):
        raw = minimal_raw(problems=["dtlz2:4"], mu=6, budget=600)
        with pytest.raises(ConfigError, match="2m = 8"):
            validate_config(raw)

    def test_unreachable_last_checkpoint(self):
        raw = minimal_raw(mu=30, budget=50000, checkpoints=[1000, 50000])
        with pytest.raises(ConfigError, match="generation boundary"):
            validate_config(raw)

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            validate_config(["not", "a", "dict"])


class TestLoadConfig:

    def test_yaml_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(tiny_raw()))
        assert load_config(path) == validate_config(tiny_raw())

    def test_json_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_raw()))
        assert load_config(path) == validate_config(tiny_raw())

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("problems: [dtlz2:2\n  broken")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(path)


class TestConfigIdentity:

    def test_hash_ignores_mapping_order(self):
        a = validate_config(minimal_raw(
            problems=["dtlz2:2", "dtlz1:2"],
            reference_points={"dtlz2:2": [0.6, 0.6], "dtlz1:2": [0.2, 0.2]},
            params={"tau": 0.5, "delta": 0.2}))
        b = validate_config(minimal_raw(
            problems=["dtlz2:2", "dtlz1:2"],
            params={"delta": 0.2, "tau": 0.5},
            reference_points={"dtlz1:2": [0.2, 0.2], "dtlz2:2": [0.6, 0.6]}))
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_seed(self):
        a = validate_config(minimal_raw(seed=1))
        b = validate_config(minimal_raw(seed=2))
        assert a.config_hash() != b.config_hash()

    def test_canonical_is_json_stable(self):
        config = validate_config(minimal_raw())
        blob = json.dumps(config.canonical(), sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == config.config_hash()

    def test_canonical_holds_every_key_but_workers(self):
        config = validate_config(minimal_raw(
            reference_points={"dtlz2:2": [1, 0.5]},
            params={"tau": 0.5, "mutation_prob": None}))
        canonical = config.canonical()
        # no worker count: it never entered the hash or the manifest
        assert set(canonical) == {f.name for f in fields(ExperimentConfig)}
        assert "workers" not in canonical
        assert canonical["problems"] == [["dtlz2", 2]]
        assert canonical["checkpoints"] == list(DEFAULT_CHECKPOINTS)
        assert canonical["reference_points"] == {"dtlz2:2": [1.0, 0.5]}
        assert canonical["params"] == {"tau": 0.5, "mutation_prob": None}

    def test_reference_point_override_and_default(self):
        config = validate_config(minimal_raw(
            problems=["dtlz2:2", "dtlz1:2"],
            reference_points={"dtlz2:2": [0.9, 0.1]}))
        assert np.array_equal(config.reference_point_for("dtlz2", 2),
                              [0.9, 0.1])
        assert np.array_equal(
            config.reference_point_for("dtlz1", 2),
            default_reference_point("dtlz1", 2, "balanced"))


class TestCellIdentity:

    def test_cell_id_format(self):
        assert cell_id("dtlz2", 3, "rnsga2", "ba") == "dtlz2:m3:rnsga2:ba"

    def test_trace_properties(self):
        trace = RunTrace(problem="sdtlz1", m=4, algorithm="moead-nums",
                         normalization="pp", run_index=3, seed=9,
                         records=[], final_objs=np.zeros((2, 4)))
        assert trace.cell_id == "sdtlz1:m4:moead-nums:pp"
        assert trace.treatment == "moead-nums-pp"


class TestExecuteCampaign:

    def test_trace_grid_and_order(self, tiny_campaign):
        config, traces = tiny_campaign
        assert len(traces) == 4
        labels = [(t.algorithm, t.run_index) for t in traces]
        assert labels == [("nsga2", 0), ("nsga2", 1),
                          ("rnsga2", 0), ("rnsga2", 1)]

    def test_seeds_derive_from_cell_and_run(self, tiny_campaign):
        config, traces = tiny_campaign
        seeds = [t.seed for t in traces]
        assert len(set(seeds)) == 4
        for trace in traces:
            assert trace.seed == derive_run_seed(config.seed, trace.cell_id,
                                                 trace.run_index)

    def test_records_cover_checkpoints(self, tiny_campaign):
        config, traces = tiny_campaign
        for trace in traces:
            assert [r["checkpoint"] for r in trace.records] == [100, 200]
            assert [r["evals"] for r in trace.records] == [100, 200]
            for record in trace.records:
                assert record["igd_plus_c"] >= 0.0
                assert record["e_ideal"] >= 0.0
                assert record["e_nadir"] >= 0.0
                assert record["ore"] >= 0.0
                assert record["z_lb"].shape == (2,)
                assert record["z_ub"].shape == (2,)
            assert trace.final_objs.shape == (config.mu, 2)

    def test_repeat_execution_is_identical(self, tiny_campaign):
        config, traces = tiny_campaign
        again = execute_campaign(config, workers=1)
        for a, b in zip(traces, again):
            assert a.seed == b.seed
            assert np.array_equal(a.final_objs, b.final_objs)
            for ra, rb in zip(a.records, b.records):
                assert ra["igd_plus_c"] == rb["igd_plus_c"]
                assert np.array_equal(ra["z_lb"], rb["z_lb"])

    def test_checkpoints_align_to_generation_boundaries(self):
        config = validate_config(minimal_raw(
            runs=1, budget=600, mu=30, checkpoints=[100, 290, 600],
            pf_size=100))
        (trace,) = execute_campaign(config, workers=1)
        assert [r["checkpoint"] for r in trace.records] == [100, 290, 600]
        assert [r["evals"] for r in trace.records] == [120, 300, 600]

    def test_failed_runs_are_reported(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        # one group: both kinds of nsga2 fail
        monkeypatch.setitem(harness.ALGORITHMS, "nsga2", broken)
        config = validate_config(tiny_raw(algorithms=["nsga2"],
                                          normalizations=["pp", "ba"]))
        with pytest.raises(RuntimeError) as err:
            execute_campaign(config, workers=1)
        message = str(err.value)
        assert "4 of 4 runs failed" in message
        assert "dtlz2:m2:nsga2:pp run 0: boom" in message
        assert "dtlz2:m2:nsga2:ba run 0: boom" in message

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched registry only "
                               "when forked")
    def test_pooled_failures_are_reported_in_task_order(self, monkeypatch):
        config = validate_config(tiny_raw(normalizations=["pp", "ba"]))

        def broken(*args):
            raise ValueError("boom")

        def slow(*args):
            # the first group fails last, so completion order would list
            # it after the second
            time.sleep(0.5)
            broken()

        monkeypatch.setitem(harness.ALGORITHMS, "nsga2", slow)
        monkeypatch.setitem(harness.ALGORITHMS, "rnsga2", broken)
        with pytest.raises(RuntimeError) as err:
            execute_campaign(config, workers=2)
        assert str(err.value).splitlines() == ["8 of 8 runs failed:"] + [
            f"dtlz2:m2:{algorithm}:{kind} run {k}: boom"
            for algorithm in ("nsga2", "rnsga2") for kind in ("pp", "ba")
            for k in range(2)]

    def test_a_failed_cell_logs_each_of_its_runs(self, monkeypatch,
                                                 caplog):
        # bench/child.py counts failed runs from these records; a group
        # that raises fails the runs of every kind, each logged with its
        # own cell id
        def broken(*args):
            raise ValueError("boom")

        monkeypatch.setitem(harness.ALGORITHMS, "rnsga2", broken)
        config = validate_config(tiny_raw(normalizations=["pp", "ba"],
                                          runs=3))
        with pytest.raises(RuntimeError) as err:
            execute_campaign(config, workers=1)
        failed = [rec.getMessage() for rec in caplog.records
                  if rec.levelname == "ERROR"]
        assert failed == [f"run failed: dtlz2:m2:rnsga2:{kind} run {k}: boom"
                          for kind in ("pp", "ba") for k in range(3)]
        assert str(err.value).splitlines()[0] == "6 of 12 runs failed:"

    def test_pool_reports_cells_and_runs(self, caplog):
        # the unit of work is a (problem, m, algorithm) group; its traces
        # come back kind after kind, run after run
        caplog.set_level("INFO", logger="prefnorm.harness")
        config = validate_config(tiny_raw(runs=3,
                                          normalizations=["pp", "ba"]))
        traces = execute_campaign(config, workers=2)
        assert "running 2 groups (12 runs) on 2 workers" in caplog.messages
        assert [(t.algorithm, t.normalization, t.run_index)
                for t in traces] == [
            (algorithm, kind, k) for algorithm in ("nsga2", "rnsga2")
            for kind in ("pp", "ba") for k in range(3)]


class TestFriedman:

    def test_hand_computed_midranks(self):
        table = {
            "p1": {"A": 0.1, "B": 0.2, "C": 0.3, "D": 0.4},
            "p2": {"A": 0.1, "B": 0.2, "C": 0.3, "D": 0.4},
            "p3": {"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1},
            "p4": {"A": 0.1, "B": 0.1, "C": 0.3, "D": 0.4},
            "p5": {"A": 0.5, "B": 0.5, "C": 0.5, "D": 0.5},
            "p6": {"A": 0.2, "B": 0.1, "C": 0.4, "D": 0.3},
            "p7": {"A": 0.3, "B": 0.4, "C": 0.1, "D": 0.1},
        }
        avg = friedman_ranks_from_means(table)
        assert avg == {"A": pytest.approx(15 / 7),
                       "B": pytest.approx(16 / 7),
                       "C": pytest.approx(19 / 7),
                       "D": pytest.approx(20 / 7)}

    def test_average_ranks_sum_is_invariant(self):
        # ranks within one problem always sum to k(k+1)/2
        rng = np.random.default_rng(8)
        table = {f"p{i}": {t: float(rng.random())
                           for t in "ABCDE"} for i in range(6)}
        avg = friedman_ranks_from_means(table)
        assert sum(avg.values()) == pytest.approx(15.0)

    def test_incomplete_design_rejected(self):
        table = {"p1": {"A": 0.1, "B": 0.2}, "p2": {"A": 0.1}}
        with pytest.raises(ValueError, match="incomplete"):
            friedman_ranks_from_means(table)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            friedman_ranks_from_means({})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_mean_rejected(self, bad):
        table = {"p1": {"A": 0.1, "B": 0.2}, "p2": {"A": bad, "B": 0.2}}
        with pytest.raises(ValueError, match="cannot rank"):
            friedman_ranks_from_means(table)

    @given(st.lists(st.one_of(st.integers(-3, 3), st.just(-0.0)),
                    min_size=1, max_size=40),
           st.sampled_from([1e-300, 1.0, 1e300]),
           st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_midranks_match_rankdata(self, grid, scale, extra):
        # integer grids tie often; -0.0 must tie with 0.0
        values = np.concatenate([np.array(grid, dtype=float) * scale,
                                 np.array(extra, dtype=float)])
        assert (harness._midranks(values).tobytes()
                == rankdata(values, method="average").tobytes())

    def test_import_leaves_scipy_stats_unloaded(self):
        src = str(Path(harness.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, prefnorm; print('scipy.stats' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout == "False\n"

    @staticmethod
    def synthetic_trace(problem, m, algorithm, kind, run_index, value):
        record = {"checkpoint": 100, "evals": 100, "igd_plus_c": value,
                  "e_ideal": 0.0, "e_nadir": 0.0, "ore": 0.0,
                  "z_lb": np.zeros(m), "z_ub": np.ones(m)}
        return RunTrace(problem=problem, m=m, algorithm=algorithm,
                        normalization=kind, run_index=run_index, seed=0,
                        records=[record], final_objs=np.zeros((1, m)))

    @staticmethod
    def write(traces, out):
        """Write ``traces`` as a campaign with one checkpoint at 100."""
        config = ExperimentConfig(
            problems=sorted({(t.problem, t.m) for t in traces}),
            algorithms=sorted({t.algorithm for t in traces}),
            normalizations=sorted({t.normalization for t in traces}),
            runs=2, budget=100, checkpoints=(100,))
        write_results(traces, config, out)
        return out

    def test_average_ranks_from_traces(self, tmp_path):
        traces = []
        # dtlz1: nsga2-no mean 0.2, rnsga2-ba mean 0.1 -> ranks 2, 1
        # dtlz2: nsga2-no mean 0.1, rnsga2-ba mean 0.3 -> ranks 1, 2
        for run, value in enumerate([0.1, 0.3]):
            traces.append(self.synthetic_trace("dtlz1", 2, "nsga2", "no",
                                               run, value))
        for run, value in enumerate([0.05, 0.15]):
            traces.append(self.synthetic_trace("dtlz1", 2, "rnsga2", "ba",
                                               run, value))
        for run, value in enumerate([0.05, 0.15]):
            traces.append(self.synthetic_trace("dtlz2", 2, "nsga2", "no",
                                               run, value))
        for run, value in enumerate([0.2, 0.4]):
            traces.append(self.synthetic_trace("dtlz2", 2, "rnsga2", "ba",
                                               run, value))
        # an sdtlz trace must not leak into the dtlz suite
        traces.append(self.synthetic_trace("sdtlz1", 2, "nsga2", "no",
                                           0, 9.9))
        avg = rank_from_results(self.write(traces, tmp_path), "dtlz", 100)
        assert avg == {"nsga2-no": pytest.approx(1.5),
                       "rnsga2-ba": pytest.approx(1.5)}

    def test_unknown_suite_rejected(self, tmp_path):
        trace = self.synthetic_trace("dtlz1", 2, "nsga2", "no", 0, 0.1)
        out = self.write([trace], tmp_path)
        with pytest.raises(ValueError, match="unknown suite"):
            rank_from_results(out, "mystery", 100)

    def test_no_data_rejected(self, tmp_path):
        trace = self.synthetic_trace("dtlz1", 2, "nsga2", "no", 0, 0.1)
        out = self.write([trace], tmp_path)
        with pytest.raises(ValueError, match="no rows for suite 'sdtlz'"):
            rank_from_results(out, "sdtlz", 100)

    def test_suite_membership(self):
        assert SUITES["dtlz"] == tuple(f"dtlz{i}" for i in range(1, 8))
        assert SUITES["sdtlz"] == tuple(f"sdtlz{i}" for i in range(1, 5))
        assert SUITES["idtlz"] == tuple(f"idtlz{i}" for i in range(1, 5))


@pytest.fixture(scope="module")
def written(tmp_path_factory, tiny_campaign):
    config, traces = tiny_campaign
    out = tmp_path_factory.mktemp("campaign")
    write_results(traces, config, out)
    return config, traces, out


class TestWriteResults:

    def test_file_inventory(self, written):
        config, traces, out = written
        names = {p.name for p in out.iterdir()}
        assert names == {"runs", "summary.csv", "summary_checkpoints.csv",
                         "ranks.csv", "rank_summary.csv", "manifest.json"}
        run_files = sorted(p.name for p in (out / "runs").iterdir())
        assert len(run_files) == 2 * len(traces)
        assert "dtlz2_m2_nsga2_ba_r00.csv" in run_files
        assert "dtlz2_m2_nsga2_ba_r00_pop.csv" in run_files

    def test_run_csv_layout(self, written):
        config, traces, out = written
        lines = (out / "runs" / "dtlz2_m2_nsga2_ba_r00.csv").read_text()
        rows = lines.strip().split("\n")
        assert rows[0] == ("checkpoint,evals,igd_plus_c,e_ideal,e_nadir,"
                           "ore,z_lb_1,z_lb_2,z_ub_1,z_ub_2")
        assert len(rows) == 1 + len(config.checkpoints)
        assert rows[1].startswith("100,100,")

    def test_population_csv_layout(self, written):
        config, traces, out = written
        lines = (out / "runs" / "dtlz2_m2_nsga2_ba_r00_pop.csv").read_text()
        rows = lines.strip().split("\n")
        assert rows[0] == "f_1,f_2"
        assert len(rows) == 1 + config.mu

    def test_summary_layout_and_ranks(self, written):
        config, traces, out = written
        rows = (out / "summary.csv").read_text().strip().split("\n")
        assert rows[0] == "problem,m,treatment,mean_igdpc,std_igdpc,rank"
        assert len(rows) == 3
        ranks = sorted(float(r.split(",")[-1]) for r in rows[1:])
        assert ranks == [1.0, 2.0]

    def test_summary_checkpoints_layout(self, written):
        config, traces, out = written
        rows = (out / "summary_checkpoints.csv").read_text().strip()
        rows = rows.split("\n")
        assert rows[0] == ("problem,m,treatment,checkpoint,"
                           "mean_igdpc,std_igdpc,mean_e_ideal,std_e_ideal,"
                           "mean_e_nadir,std_e_nadir,mean_ore,std_ore")
        assert len(rows) == 1 + 2 * len(config.checkpoints)

    def test_summary_matches_run_files(self, written):
        config, traces, out = written
        import csv as csv_mod
        per_treatment = {}
        for trace in traces:
            stem = (f"{trace.problem}_m{trace.m}_{trace.algorithm}_"
                    f"{trace.normalization}_r{trace.run_index:02d}")
            with open(out / "runs" / f"{stem}.csv", newline="") as fh:
                for row in csv_mod.DictReader(fh):
                    if int(row["checkpoint"]) == 200:
                        per_treatment.setdefault(trace.treatment, []).append(
                            float(row["igd_plus_c"]))
        with open(out / "summary.csv", newline="") as fh:
            for row in csv_mod.DictReader(fh):
                mean = np.mean(per_treatment[row["treatment"]])
                assert float(row["mean_igdpc"]) == pytest.approx(
                    mean, abs=1e-12)

    def test_ranks_file_covers_every_checkpoint(self, written):
        config, traces, out = written
        rows = (out / "ranks.csv").read_text().strip().split("\n")
        assert rows[0] == "problem,m,checkpoint,treatment,mean_igdpc,rank"
        assert len(rows) == 1 + 2 * len(config.checkpoints)

    def test_rank_summary_suite_rows(self, written):
        config, traces, out = written
        rows = (out / "rank_summary.csv").read_text().strip().split("\n")
        assert rows[0] == "suite,checkpoint,treatment,avg_rank,problems"
        assert all(r.startswith("dtlz,") for r in rows[1:])
        assert len(rows) == 1 + 2 * len(config.checkpoints)

    def test_manifest_contents(self, written):
        config, traces, out = written
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config.config_hash()
        assert manifest["config"] == config.canonical()
        for trace in traces:
            assert (manifest["seeds"][trace.cell_id][str(trace.run_index)]
                    == trace.seed)
        for rel in manifest["files"]:
            assert (out / rel).is_file()

    def test_rewrite_is_byte_identical(self, written, tmp_path):
        config, traces, out = written
        write_results(traces, config, tmp_path)
        for rel in json.loads(
                (out / "manifest.json").read_text())["files"]:
            assert (tmp_path / rel).read_bytes() == (out / rel).read_bytes()
        assert ((tmp_path / "manifest.json").read_bytes()
                == (out / "manifest.json").read_bytes())

    def test_empty_campaign_writes_manifest_only(self, tmp_path):
        config = validate_config(minimal_raw())
        write_results([], config, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"] == {}
        assert manifest["files"] == []

    def test_rank_from_results_round_trip(self, written):
        config, traces, out = written
        avg = rank_from_results(out, "dtlz", 200)
        # the one dtlz instance ranks the run-mean IGD+-C of each treatment
        runs: dict[str, list[float]] = {}
        for trace in traces:
            (record,) = [r for r in trace.records if r["checkpoint"] == 200]
            runs.setdefault(trace.treatment, []).append(record["igd_plus_c"])
        means = {t: float(np.mean(v)) for t, v in runs.items()}
        assert avg == friedman_ranks_from_means({"dtlz2:m2": means})

    def test_rank_from_results_errors(self, written, tmp_path):
        config, traces, out = written
        with pytest.raises(ValueError, match="unknown suite"):
            rank_from_results(out, "mystery", 200)
        with pytest.raises(ValueError, match="no rows"):
            rank_from_results(out, "sdtlz", 200)
        with pytest.raises(FileNotFoundError):
            rank_from_results(tmp_path / "nowhere", "dtlz", 200)


class TestStableFormatting:

    def test_float_round_trip(self):
        assert harness._fmt(0.1) == "0.1"
        assert harness._fmt(np.float64(0.30000000000000004)) == \
            "0.30000000000000004"
        assert float(harness._fmt(1 / 3)) == 1 / 3

    def test_non_float_passthrough(self):
        assert harness._fmt(7) == "7"
        assert harness._fmt("abc") == "abc"
