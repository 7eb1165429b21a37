"""Campaign harness: config, seeded runs, indicator traces, rank tables.

A campaign is the cross product problems x algorithms x normalizations, each
cell repeated for a fixed number of independent runs.  Per-run seeds derive
only from the base seed and the cell identity, so editing unrelated parts of
the config never changes a run, and a repeated campaign reproduces its
output files byte for byte.
"""
from __future__ import annotations

import bisect
import concurrent.futures
import contextlib
import csv
import hashlib
import json
import logging
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .algorithms import ALGORITHMS, AlgorithmParams, Recorder
from .core import derive_run_seed, make_engine
from .indicators import (DEFAULT_ROI_RADIUS, RoiReferenceSet,
                         build_roi_reference_set, e_ideal, e_nadir,
                         igd_plus_c, ore)
from .normalization import KINDS, TrueScaler
from .problems import SUITES, get_problem, problem_names
from .refpoints import SETTINGS, default_reference_point

logger = logging.getLogger(__name__)

DEFAULT_CHECKPOINTS = (1000, 3000, 5000, 8000, 10000, 15000, 20000, 25000,
                       30000, 35000, 40000, 45000, 50000)

class ConfigError(Exception):
    """Invalid experiment configuration; message lists offending fields."""


@dataclass
class ExperimentConfig:
    """Validated campaign description."""

    problems: list[tuple[str, int]]
    algorithms: list[str]
    normalizations: list[str]
    runs: int = 31
    budget: int = 50000
    mu: int = 100
    seed: int = 1
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS
    roi_radius: float = DEFAULT_ROI_RADIUS
    pf_size: int = 10000
    reference_setting: str = "balanced"
    reference_points: dict[str, list[float]] = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def canonical(self) -> dict:
        """JSON-stable form used for hashing and the manifest."""
        data = asdict(self)
        # the JSON round trip turns tuples into the lists a manifest holds
        return json.loads(json.dumps(data))

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def reference_point_for(self, name: str, m: int) -> np.ndarray:
        key = f"{name}:{m}"
        if key in self.reference_points:
            return np.asarray(self.reference_points[key], dtype=float)
        return default_reference_point(name, m, self.reference_setting)


# the ranges the operators enforce at run time (nums_shift,
# r_domination_matrix, run_moead_nums); DE/rand/1 needs three neighbours
# besides the target, so a neighbourhood holds at least four
_PARAM_RANGES = {
    "tau": ("(0, 1]", lambda x: 0.0 < x <= 1.0),
    "delta": ("[0, 1]", lambda x: 0.0 <= x <= 1.0),
    "rho": ("> 0", lambda x: x > 0.0),
    "neighborhood_t": (">= 4", lambda x: x >= 4),
    # probabilities; a null mutation_prob means 1/n
    "crossover_prob": ("[0, 1]", lambda x: 0.0 <= x <= 1.0),
    "mutation_prob": ("[0, 1]", lambda x: 0.0 <= x <= 1.0),
    "de_cr": ("[0, 1]", lambda x: 0.0 <= x <= 1.0),
    # a radius: clearing compares squared distances with its square, so a
    # negative value would clear as its absolute value does
    "epsilon_clear": (">= 0", lambda x: x >= 0.0),
    # SBX and polynomial mutation raise to 1 / (eta + 1); the literature
    # (Deb & Agrawal, Complex Systems 9, 1995) takes eta >= 0
    "sbx_eta": (">= 0", lambda x: x >= 0.0),
    "pm_eta": (">= 0", lambda x: x >= 0.0),
}


def _is_number(value) -> bool:
    """A finite int or float; a bool, or an int past float range, is not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _as_int(value, path: str, errors: list[str], minimum: int | None = None):
    if not isinstance(value, int) or isinstance(value, bool):
        errors.append(f"{path}: expected an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        errors.append(f"{path}: must be >= {minimum}, got {value}")
        return None
    return value


def validate_config(raw: dict) -> ExperimentConfig:
    """Turn a parsed config mapping into an ExperimentConfig.

    The keys, their defaults and the operator parameter names are those of
    :class:`ExperimentConfig` and :class:`AlgorithmParams`.

    Raises
    ------
    ConfigError
        With one line per problem found, naming the offending field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a mapping")
    schema = fields(ExperimentConfig)
    errors = [f"{key}: unknown key"
              for key in sorted(set(raw) - {f.name for f in schema}, key=str)]
    # absent keys take the dataclass default; required ones stay MISSING
    v = {f.name: raw.get(f.name, f.default if f.default_factory is MISSING
                         else f.default_factory()) for f in schema}

    problems: list[tuple[str, int]] = []
    if not isinstance(v["problems"], list) or not v["problems"]:
        errors.append("problems: expected a non-empty list")
    else:
        for i, entry in enumerate(v["problems"]):
            path = f"problems[{i}]"
            if isinstance(entry, str) and ":" in entry:
                name, _, ms = entry.partition(":")
                entry = {"name": name, "m": int(ms) if ms.isdigit() else ms}
            if not isinstance(entry, dict):
                errors.append(f"{path}: expected 'name:m' or a mapping")
                continue
            errors.extend(f"{path}.{key}: unknown key"
                          for key in sorted(set(entry) - {"name", "m"},
                                            key=str))
            name = entry.get("name")
            if name not in problem_names():
                errors.append(f"{path}.name: unknown problem {name!r}")
                continue
            m = _as_int(entry.get("m"), f"{path}.m", errors, minimum=2)
            if (name, m) in problems:
                errors.append(f"{path}: duplicate problem {name}:{m}")
            elif m is not None:
                problems.append((name, m))
    v["problems"] = problems

    # YAML 1.1 reads a bare `no` as boolean False; map it back to the kind.
    if isinstance(v["normalizations"], list):
        v["normalizations"] = ["no" if kind is False else kind
                               for kind in v["normalizations"]]
    for key, what, known in (("algorithms", "algorithm", ALGORITHMS),
                             ("normalizations", "kind", KINDS)):
        if not isinstance(v[key], list) or not v[key]:
            errors.append(f"{key}: expected a non-empty list")
            v[key] = []
        for i, item in enumerate(v[key]):
            if item not in known:
                errors.append(f"{key}[{i}]: unknown {what} {item!r}; "
                              f"known: {', '.join(known)}")
            elif item in v[key][:i]:
                errors.append(f"{key}[{i}]: duplicate {what} {item!r}")

    for key, minimum in (("runs", 1), ("budget", 1), ("mu", 4), ("seed", 0),
                         ("pf_size", 10)):
        v[key] = _as_int(v[key], key, errors, minimum=minimum)
    mu = v["mu"]
    if mu is not None and mu % 2:
        errors.append(f"mu: must be even, got {mu}")

    checkpoints = v["checkpoints"]
    if (not isinstance(checkpoints, (list, tuple)) or not checkpoints or
            any(_as_int(c, f"checkpoints[{i}]", errors, minimum=1) is None
                for i, c in enumerate(checkpoints))):
        errors.append("checkpoints: expected a non-empty list of integers")
    elif any(a >= b for a, b in zip(checkpoints, checkpoints[1:])):
        errors.append("checkpoints: must be strictly ascending")
    else:
        v["checkpoints"] = tuple(checkpoints)

    if not _is_number(v["roi_radius"]) or v["roi_radius"] <= 0:
        errors.append(f"roi_radius: expected a positive number, "
                      f"got {v['roi_radius']!r}")
    else:
        v["roi_radius"] = float(v["roi_radius"])

    setting = v["reference_setting"]
    if setting not in SETTINGS:
        errors.append(f"reference_setting: unknown setting {setting!r}; "
                      f"known: {', '.join(SETTINGS)}")

    refs = v["reference_points"]
    if not isinstance(refs, dict):
        errors.append("reference_points: expected a mapping 'name:m' -> "
                      "list of floats")
    else:
        for key, vec in refs.items():
            if not isinstance(vec, list) or not all(map(_is_number, vec)):
                errors.append(f"reference_points.{key}: expected a list of "
                              "numbers")

    params = v["params"]
    if not isinstance(params, dict):
        errors.append("params: expected a mapping")
        params = {}
    types = {f.name: f.type for f in fields(AlgorithmParams)}
    for key in sorted(params, key=str):
        value, kind = params[key], types.get(key)
        if kind is None:
            errors.append(f"params.{key}: unknown parameter; "
                          f"known: {', '.join(types)}")
            continue
        if kind == "int":
            valid = _as_int(value, f"params.{key}", errors,
                            minimum=1) is not None
        else:
            valid = _is_number(value) or value is None and "None" in kind
            if not valid:
                errors.append(f"params.{key}: expected a finite number, "
                              f"got {value!r}")
        if valid and value is not None and key in _PARAM_RANGES:
            text, within = _PARAM_RANGES[key]
            if not within(value):
                errors.append(f"params.{key}: must be {text}, got {value!r}")

    if not errors:
        instances = {f"{name}:{m}" for name, m in problems}
        for key in sorted(set(refs) - instances, key=str):
            errors.append(f"reference_points.{key}: not a problem of this "
                          "campaign")
        for name, m in problems:
            if mu < 2 * m:
                errors.append(f"mu: must be at least 2m = {2 * m} for "
                              f"{name}:{m}, got {mu}")
            key = f"{name}:{m}"
            if key in refs:
                if len(refs[key]) != m:
                    errors.append(f"reference_points.{key}: expected {m} "
                                  f"values, got {len(refs[key])}")
                continue
            try:
                default_reference_point(name, m, setting)
            except KeyError as exc:
                errors.append(f"problems: {exc.args[0]}")
        last = checkpoints[-1]
        reachable = (v["budget"] // mu) * mu
        if last > v["budget"]:
            errors.append(f"checkpoints: last checkpoint {last} exceeds "
                          f"budget {v['budget']}")
        elif last > reachable:
            errors.append(f"checkpoints: last checkpoint {last} is past the "
                          f"final generation boundary {reachable} "
                          f"(budget {v['budget']}, mu {mu})")

    if errors:
        raise ConfigError("\n".join(errors))
    v["reference_points"] = {k: list(map(float, vec))
                             for k, vec in refs.items()}
    v["params"] = dict(params)
    return ExperimentConfig(**v)


def load_config(path: str | Path,
                overrides: dict | None = None) -> ExperimentConfig:
    """Read and validate a YAML or JSON campaign config.

    ``overrides`` replaces top-level keys of the file before validation.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}")
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return validate_config(raw)


@dataclass
class RunTrace:
    """Per-checkpoint indicator records plus the final population of a run."""

    problem: str
    m: int
    algorithm: str
    normalization: str
    run_index: int
    seed: int
    records: list[dict]
    final_objs: np.ndarray

    @property
    def cell_id(self) -> str:
        return cell_id(self.problem, self.m, self.algorithm,
                       self.normalization)

    @property
    def treatment(self) -> str:
        return f"{self.algorithm}-{self.normalization}"


def cell_id(problem: str, m: int, algorithm: str, normalization: str) -> str:
    return f"{problem}:m{m}:{algorithm}:{normalization}"


def _checkpoint_recorder(checkpoints: tuple[int, ...], roi: RoiReferenceSet,
                         records: list[list[dict]]) -> Recorder:
    """A cell's recorder: one indicator record per run and checkpoint passed.

    Run r's records go to ``records[r]``.  A call scores the block of runs
    it is handed at once, whichever of them has a checkpoint due.
    """
    checkpoints = sorted(checkpoints)
    done = [0] * len(records)  # the checkpoints each run has recorded

    def recorder(evals, objs, state, runs):
        upto = bisect.bisect_right(checkpoints, evals)
        if all(done[run] == upto for run in runs):
            return
        z_lb, z_ub = state.z_lb.copy(), state.z_ub.copy()
        values = zip(igd_plus_c(objs, roi).tolist(),
                     e_ideal(z_lb, roi.scaler).tolist(),
                     e_nadir(z_ub, roi.scaler).tolist(),
                     ore(z_lb, z_ub, roi.scaler).tolist(), z_lb, z_ub)
        for run, (igd, ideal, nadir, spread, lb, ub) in zip(runs, values):
            for checkpoint in checkpoints[done[run]:upto]:
                records[run].append({
                    "checkpoint": checkpoint,
                    "evals": evals,
                    "igd_plus_c": igd,
                    "e_ideal": ideal,
                    "e_nadir": nadir,
                    "ore": spread,
                    "z_lb": lb,
                    "z_ub": ub,
                })
            done[run] = upto

    return recorder


def _execute_cell(problem_name: str, m: int, algorithm: str,
                  normalization: str, seeds: list[int],
                  config: ExperimentConfig, z: np.ndarray,
                  roi: RoiReferenceSet) -> list[RunTrace]:
    """The traces of a cell's runs, one per seed, all run in one call."""
    records: list[list[dict]] = [[] for _ in seeds]
    finals = ALGORITHMS[algorithm](
        get_problem(problem_name, m), z, normalization, config.mu,
        config.budget, [make_engine(seed) for seed in seeds],
        AlgorithmParams(**config.params),
        _checkpoint_recorder(config.checkpoints, roi, records))
    return [RunTrace(problem=problem_name, m=m, algorithm=algorithm,
                     normalization=normalization, run_index=run_index,
                     seed=seed, records=log, final_objs=final)
            for run_index, (seed, log, final)
            in enumerate(zip(seeds, records, finals))]


def build_cell_roi(config: ExperimentConfig, problem_name: str,
                   m: int) -> tuple[np.ndarray, RoiReferenceSet]:
    """Reference point and ROI reference set of one problem instance."""
    problem = get_problem(problem_name, m)
    z = config.reference_point_for(problem_name, m)
    pf_engine = make_engine(derive_run_seed(config.seed,
                                            f"pf:{problem_name}:m{m}", 0))
    pf = problem.sample_pf(config.pf_size, pf_engine)
    scaler = TrueScaler(ideal=problem.true_ideal, nadir=problem.true_nadir)
    roi = build_roi_reference_set(pf, z, config.roi_radius, scaler)
    return z, roi


def _attempt_cell(task: tuple) -> list[RunTrace] | str:
    """A cell's traces, or the message of the error that stopped it."""
    try:
        return _execute_cell(*task)
    except Exception as exc:
        return str(exc)


def execute_campaign(config: ExperimentConfig,
                     workers: int = 1) -> list[RunTrace]:
    """Run every cell of the campaign; traces come back in canonical order.

    A cell is the unit of work: one runner call steps its runs together
    (see :func:`algorithms._run_generational` for what is batched across
    runs and what stays per run), and an error fails all of its runs.
    ``workers`` > 1 runs the cells in that many processes; the traces and
    the files written from them do not depend on it.
    """
    if workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {workers}")
    tasks = []
    for name, m in config.problems:
        z, roi = build_cell_roi(config, name, m)
        for algorithm in config.algorithms:
            for kind in config.normalizations:
                cid = cell_id(name, m, algorithm, kind)
                seeds = [derive_run_seed(config.seed, cid, run_index)
                         for run_index in range(config.runs)]
                tasks.append((name, m, algorithm, kind, seeds, config, z, roi))
    total = len(tasks) * config.runs
    traces: list[RunTrace] = []
    failures: list[str] = []
    with contextlib.ExitStack() as stack:
        run_all = map
        if workers > 1:
            logger.info("running %d cells (%d runs) on %d workers",
                        len(tasks), total, workers)
            run_all = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(workers)).map
        for task, outcome in zip(tasks, run_all(_attempt_cell, tasks)):
            if isinstance(outcome, list):
                traces.extend(outcome)
                continue
            for run_index in range(config.runs):
                label = f"{cell_id(*task[:4])} run {run_index}"
                logger.error("run failed: %s: %s", label, outcome)
                failures.append(f"{label}: {outcome}")
    if failures:
        raise RuntimeError("%d of %d runs failed:\n%s"
                           % (len(failures), total, "\n".join(failures)))
    return traces


def _midranks(values) -> np.ndarray:
    """Ranks 1..n of ``values``, ascending; ties share their mean rank.

    Raises
    ------
    ValueError
        If a value is NaN or infinite.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"cannot rank non-finite values: {values.tolist()}")
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2)[inverse]


def friedman_ranks_from_means(mean_table: dict[str, dict[str, float]]
                              ) -> dict[str, float]:
    """Average rank of each treatment across problems.

    Parameters
    ----------
    mean_table : dict
        ``mean_table[problem][treatment]`` is the mean indicator value
        (lower is better).  Every problem must cover the same treatments.

    Returns
    -------
    dict
        Treatment -> average rank; ties within a problem get midranks.
    """
    if not mean_table:
        raise ValueError("empty mean table")
    problems = sorted(mean_table)
    treatments = sorted(mean_table[problems[0]])
    for prob in problems:
        if sorted(mean_table[prob]) != treatments:
            raise ValueError(f"problem {prob!r} does not cover the same "
                             "treatments as the others: incomplete design")
    sums = np.zeros(len(treatments))
    for prob in problems:
        sums += _midranks([mean_table[prob][t] for t in treatments])
    return {t: float(s / len(problems)) for t, s in zip(treatments, sums)}


INDICATORS = ("igd_plus_c", "e_ideal", "e_nadir", "ore")


def _stats_table(traces: list[RunTrace]
                 ) -> dict[tuple[str, int, str, int],
                           dict[str, tuple[float, float]]]:
    """Mean and std over runs of each indicator the records carry.

    Keyed by (problem, m, treatment, checkpoint); runs enter in the order
    of ``traces``.
    """
    groups: dict[tuple, list[dict]] = {}
    for trace in traces:
        for record in trace.records:
            key = (trace.problem, trace.m, trace.treatment,
                   record["checkpoint"])
            groups.setdefault(key, []).append(record)
    return {key: {name: _mean_std([r[name] for r in records])
                  for name in INDICATORS if name in records[0]}
            for key, records in groups.items()}


def _mean_std(values: list[float]) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values))


def _instance_means(table: dict) -> dict[tuple[str, int, int],
                                         dict[str, float]]:
    """Mean IGD+-C of each treatment per (problem, m, checkpoint)."""
    means: dict[tuple[str, int, int], dict[str, float]] = {}
    for (prob, m, treatment, checkpoint), stats in table.items():
        means.setdefault((prob, m, checkpoint),
                         {})[treatment] = stats["igd_plus_c"][0]
    return means


def _fmt(value) -> str:
    """Stable text form: shortest round-trip repr for floats."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _trace_file_stem(trace: RunTrace) -> str:
    return (f"{trace.problem}_m{trace.m}_{trace.algorithm}_"
            f"{trace.normalization}_r{trace.run_index:02d}")


def write_results(traces: list[RunTrace], config: ExperimentConfig,
                  out_dir: str | Path) -> Path:
    """Persist a campaign: per-run traces, summaries, manifest.

    Layout: ``runs/<cell>_r<k>.csv`` (one row per checkpoint),
    ``runs/<cell>_r<k>_pop.csv`` (final population objectives),
    ``summary.csv`` (final checkpoint, one row per cell),
    ``summary_checkpoints.csv`` (all checkpoints), ``ranks.csv`` (treatment
    ranks per instance and checkpoint), ``rank_summary.csv`` (Friedman
    average ranks per suite and checkpoint, when a suite has data) and
    ``manifest.json``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = _write_tables(traces, config, out) if traces else []
    seeds: dict[str, dict[str, int]] = {}
    for trace in traces:
        seeds.setdefault(trace.cell_id, {})[str(trace.run_index)] = trace.seed
    manifest = {
        "version": __version__,
        "config": config.canonical(),
        "config_hash": config.config_hash(),
        "seeds": seeds,
        "files": files,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _write_tables(traces: list[RunTrace], config: ExperimentConfig,
                  out: Path) -> list[str]:
    """Per-run CSVs and the summary tables; returns their relative paths."""
    (out / "runs").mkdir(exist_ok=True)
    traces = sorted(traces, key=lambda t: (t.problem, t.m, t.algorithm,
                                           t.normalization, t.run_index))
    files: list[str] = []
    for trace in traces:
        m = trace.m
        stem = _trace_file_stem(trace)
        header = (["checkpoint", "evals", *INDICATORS]
                  + [f"z_lb_{i + 1}" for i in range(m)]
                  + [f"z_ub_{i + 1}" for i in range(m)])
        rows = [[r["checkpoint"], r["evals"]] + [r[k] for k in INDICATORS]
                + list(r["z_lb"]) + list(r["z_ub"]) for r in trace.records]
        _write_csv(out / "runs" / f"{stem}.csv", header, rows)
        _write_csv(out / "runs" / f"{stem}_pop.csv",
                   [f"f_{i + 1}" for i in range(m)],
                   [list(row) for row in trace.final_objs])
        files.append(f"runs/{stem}.csv")
        files.append(f"runs/{stem}_pop.csv")

    table = _stats_table(traces)
    means = _instance_means(table)
    ranks: dict[tuple[str, int, int, str], float] = {}
    for (prob, m, checkpoint), row in means.items():
        for treatment, rk in friedman_ranks_from_means({prob: row}).items():
            ranks[(prob, m, checkpoint, treatment)] = rk
    cells = sorted({(t.problem, t.m, t.treatment) for t in traces})

    last_cp = max(config.checkpoints)
    summary_rows = []
    for prob, m, treatment in cells:
        stats = table.get((prob, m, treatment, last_cp))
        if stats is not None:
            summary_rows.append([prob, m, treatment, *stats["igd_plus_c"],
                                 ranks[(prob, m, last_cp, treatment)]])
    _write_csv(out / "summary.csv",
               ["problem", "m", "treatment", "mean_igdpc", "std_igdpc",
                "rank"], summary_rows)
    files.append("summary.csv")

    cp_rows = []
    for prob, m, treatment in cells:
        for checkpoint in config.checkpoints:
            stats = table.get((prob, m, treatment, checkpoint))
            if stats is not None:
                cp_rows.append([prob, m, treatment, checkpoint] + [
                    v for name in INDICATORS for v in stats[name]])
    _write_csv(out / "summary_checkpoints.csv",
               ["problem", "m", "treatment", "checkpoint",
                "mean_igdpc", "std_igdpc", "mean_e_ideal", "std_e_ideal",
                "mean_e_nadir", "std_e_nadir", "mean_ore", "std_ore"],
               cp_rows)
    files.append("summary_checkpoints.csv")

    # per-(problem, checkpoint) treatment ranks by mean indicator value
    rank_rows = [[prob, m, checkpoint, treatment,
                  means[(prob, m, checkpoint)][treatment], rk]
                 for (prob, m, checkpoint, treatment), rk
                 in sorted(ranks.items())]
    _write_csv(out / "ranks.csv",
               ["problem", "m", "checkpoint", "treatment", "mean_igdpc",
                "rank"], rank_rows)
    files.append("ranks.csv")

    # suite-level Friedman average ranks per checkpoint
    suite_rows = []
    for suite in sorted(SUITES):
        count = len({(t.problem, t.m) for t in traces
                     if t.problem in SUITES[suite]})
        for checkpoint in config.checkpoints:
            suite_means = {f"{prob}:m{m}": row
                           for (prob, m, cp), row in means.items()
                           if prob in SUITES[suite] and cp == checkpoint}
            if not suite_means:
                continue
            avg = friedman_ranks_from_means(suite_means)
            for treatment in sorted(avg):
                suite_rows.append([suite, checkpoint, treatment,
                                   avg[treatment], count])
    if suite_rows:
        _write_csv(out / "rank_summary.csv",
                   ["suite", "checkpoint", "treatment", "avg_rank",
                    "problems"], suite_rows)
        files.append("rank_summary.csv")
    return files


def rank_from_results(out_dir: str | Path, suite: str,
                      checkpoint: int) -> dict[str, float]:
    """Friedman average ranks over one suite at one checkpoint.

    Reads the ``rank_summary.csv`` that :func:`write_results` wrote to a
    campaign directory and returns its rows for ``suite`` and
    ``checkpoint``.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"known: {', '.join(SUITES)}")
    path = Path(out_dir) / "rank_summary.csv"
    if not path.is_file():
        raise FileNotFoundError(f"no rank_summary.csv under {out_dir}")
    with open(path, newline="", encoding="utf-8") as fh:
        ranks = {row["treatment"]: float(row["avg_rank"])
                 for row in csv.DictReader(fh)
                 if row["suite"] == suite
                 and int(row["checkpoint"]) == checkpoint}
    if not ranks:
        raise ValueError(f"no rows for suite {suite!r} at checkpoint "
                         f"{checkpoint} in {path}")
    return ranks
