"""Campaign benchmark: one workload, timed end to end or traced per layer.

Run from the repository root (no install needed; rounds run with
``PYTHONPATH=src``)::

    python3 bench/run.py --workload ga-pref --seed 1 --seconds 40 --trace 0

Each round runs the workload's campaign in a fresh process
(``bench/child.py``) and checks its result files (``bench/checks.py``).
With ``--trace 0`` rounds repeat while one more round is expected to end
within ``--seconds`` (at least one round runs), and the end-to-end
metrics are the medians over rounds, each round's timings rescaled to
the host speed of ``REFERENCE_PROBE_S`` by the speed probes it took.
With ``--trace 1`` one untraced round and one traced round run; the
per-layer metrics come from the traced one, and the two must write
byte-identical result files.
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (optimizer runs) and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_campaign, compare_trees
from workloads import WORKLOADS, campaign_config

BENCH = Path(__file__).resolve().parent
OUT = ".bench_out"
ROUND_TIMEOUT_S = 170

# Each phase of a round is timed, then multiplied by REFERENCE_PROBE_S over
# the mean time of the speed probes (child.SpeedProbe) taken in it, which
# takes out most of the host's drift.  The value is a typical probe time
# in the optimizer runs on the host of the README's reference figures.
REFERENCE_PROBE_S = 0.0125

END_TO_END = {"campaign_s": "s", "setup_s": "s", "evals_per_s": "1/s",
              "peak_rss_mb": "MB"}

# traced functions; each reports <name>.calls and <name>.self_s
SPANS = (
    "problems.evaluate_batch", "problems.sample_pf",
    "weights.farthest_point_subsample", "weights.uniform_simplex_set",
    "variation.sbx_batch", "variation.polynomial_mutation_batch",
    "variation.polynomial_mutation", "variation.de_rand_1",
    "normalization.update_state",
    "normalization.update_bounded_archive_objs",
    "normalization.normalize_value",
    "ranking.nondominated_sort", "ranking.domination_matrix",
    "ranking.r_domination_matrix", "ranking.fronts_from_matrix",
    "ranking.crowding_distance", "ranking.nondominated_mask",
    "algorithms.epsilon_clear", "algorithms.rnsga2_environmental_selection",
    "algorithms.moead_nums_replacement", "algorithms.runner",
    "indicators.igd_plus_c", "indicators.build_roi_reference_set",
    "indicators.bound_errors",
    "harness.load_config", "harness.build_cell_roi",
    "harness.execute_campaign", "harness.write_results",
)
# per-layer metrics besides the span stats, with their units
EXTRA_UNITS = {
    "problems.evaluate_batch.rows": "count",
    "ranking.fronts_from_matrix.cyclic_lumps": "count",
    "ranking.fronts_from_matrix.cyclic_lumped": "count",
    "harness.write_results.bytes": "B",
    "harness.write_results.files": "count",
    "package.import_s": "s",
    # self time of the root span: the benchmark's glue between the calls
    "campaign.self_s": "s",
    "trace.campaign_s": "s",
    # traced minus untraced campaign_s, both from the same invocation
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {
    **{f"{name}.{stat}": unit for name in SPANS
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    **EXTRA_UNITS,
}


class BenchError(Exception):
    """A round could not run to its end."""


def run_round(config: dict, round_dir: Path, mode: str) -> dict:
    """Run one campaign in a fresh process; return the child's report.

    ``mode`` is "plain", "probe" (sample the host's speed) or "traced".
    """
    round_dir.mkdir(parents=True)
    (round_dir / "config.json").write_text(json.dumps(config))
    cmd = [sys.executable, str(BENCH / "child.py"),
           "--config", str(round_dir / "config.json"),
           "--out", str(round_dir / "results"),
           "--roi", str(round_dir / "roi.npz")]
    if mode == "traced":
        cmd += ["--spans", str(round_dir / "spans.npz")]
    elif mode == "probe":
        cmd += ["--probe"]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH="src" + (os.pathsep + path if path else ""))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{round_dir.name}: no result after "
                         f"{ROUND_TIMEOUT_S} s")
    if proc.returncode:
        raise BenchError(f"{round_dir.name}: child exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_round(config: dict, report: dict, round_dir: Path) -> list[str]:
    if report["failed_error"]:
        return [f"{round_dir.name}: {report['failed_error']}; the harness "
                "discards every run, so nothing can be checked"]
    return [f"{round_dir.name}: {e}"
            for e in check_campaign(config, round_dir)]


def evals_per_run(config: dict) -> int:
    return config["budget"] // config["mu"] * config["mu"]


def setup_s(report: dict) -> float:
    """Import, config loading and reference-set builds of one round."""
    return report["import_s"] + report["load_s"] + report["build_s"]


def speed(report: dict, phase: str) -> float:
    """How much faster than the reference host the host ran a phase of
    the round: "runs" (the optimizer runs) or "other" (the rest)."""
    probes = report["probe_s"][phase] or sum(report["probe_s"].values(), [])
    return REFERENCE_PROBE_S / statistics.mean(probes)


def rescaled(report: dict) -> dict:
    """The round's timings at the reference host speed, each phase
    rescaled by the probes taken in it."""
    other, runs = speed(report, "other"), speed(report, "runs")
    runs_s = report["execute_s"] - report["build_s"]
    return {"campaign_s": (report["campaign_s"] - runs_s) * other
            + runs_s * runs,
            "setup_s": setup_s(report) * other,
            "runs_s": runs_s * runs}


def end_to_end(config: dict, reports: list[dict]) -> dict:
    median = statistics.median
    rounds = [rescaled(r) for r in reports]
    return {
        "campaign_s": median(r["campaign_s"] for r in rounds),
        "setup_s": median(r["setup_s"] for r in rounds),
        "evals_per_s": median(
            (rep["runs_attempted"] - rep["runs_failed"])
            * evals_per_run(config) / r["runs_s"]
            for rep, r in zip(reports, rounds)),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    layers = traced["layers"]
    values = {
        f"{name}.{stat}": layers.get(name, {"calls": 0, "self_s": 0.0})[stat]
        for name in SPANS for stat in ("calls", "self_s")}
    values.update({
        "problems.evaluate_batch.rows": traced["rows"],
        "ranking.fronts_from_matrix.cyclic_lumps": traced["cyclic_lumps"],
        "ranking.fronts_from_matrix.cyclic_lumped": traced["cyclic_lumped"],
        "harness.write_results.bytes": traced["result_bytes"],
        "harness.write_results.files": traced["result_files"],
        "package.import_s": traced["import_s"],
        "campaign.self_s": layers["campaign"]["self_s"],
        "trace.campaign_s": traced["campaign_s"],
        "trace.overhead_s": traced["campaign_s"] - plain["campaign_s"],
    })
    return values


def counts_differ(values: dict, path: Path) -> list[str]:
    """Compare this traced run's counts with the last one of the seed."""
    counts = {k: v for k, v in values.items()
              if PER_LAYER_UNITS[k] in ("count", "B")}
    errors = []
    if path.is_file():
        before = json.loads(path.read_text())
        errors = [f"count {k}: {before.get(k)} before, {v} now"
                  for k, v in counts.items() if before.get(k) != v]
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return errors


def timed_run(config: dict, work: Path, seconds: float):
    """Untraced rounds within ``seconds``; medians of the end-to-end
    metrics."""
    reports: list[dict] = []
    errors: list[str] = []
    start = time.monotonic()
    # start another round only if one more of the mean length still fits
    while not reports or ((time.monotonic() - start)
                          * (len(reports) + 1) / len(reports) <= seconds):
        round_dir = work / f"round{len(reports)}"
        reports.append(run_round(config, round_dir, "probe"))
        errors += check_round(config, reports[-1], round_dir)
        r = reports[-1]
        print(f"{round_dir.name}: campaign {r['campaign_s']:.3f} s, set-up "
              f"{setup_s(r):.3f} s, runs {r['execute_s'] - r['build_s']:.3f}"
              f" s; host speed {speed(r, 'runs'):.3f} in runs, "
              f"{speed(r, 'other'):.3f} elsewhere", file=sys.stderr)
    shutil.rmtree(work)
    metrics = {k: {"value": v, "unit": END_TO_END[k]}
               for k, v in end_to_end(config, reports).items()}
    return reports, metrics, errors


def traced_run(config: dict, work: Path):
    """An untraced and a traced round; the per-layer metrics."""
    reports: list[dict] = []
    errors: list[str] = []
    for tag in ("plain", "traced"):
        reports.append(run_round(config, work / tag, tag))
        errors += check_round(config, reports[-1], work / tag)
    errors += compare_trees(work / "plain" / "results",
                            work / "traced" / "results")
    values = per_layer(*reports)
    span_sum = sum(v["self_s"] for v in reports[1]["layers"].values())
    if abs(span_sum - values["trace.campaign_s"]) > 1e-3:
        errors.append(f"span self times sum to {span_sum} s, traced "
                      f"campaign took {values['trace.campaign_s']} s")
    errors += counts_differ(values, work.parent / f"counts-{work.name}.json")
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in PER_LAYER_UNITS.items()}
    return reports, metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/prefnorm/__init__.py").is_file():
        print("run from the repository root: src/prefnorm not found",
              file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 32
    config = campaign_config(args.workload, seed)
    # a traced run keeps its spans and results; a timed run keeps nothing
    work = Path(OUT) / args.workload / (
        f"trace-seed{seed}" if args.trace else f"seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            reports, metrics, errors = traced_run(config, work)
        else:
            reports, metrics, errors = timed_run(config, work, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["runs_attempted"] for r in reports),
        "failed": sum(r["runs_failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
