"""Correctness checks on a campaign's result files, computed apart from
``prefnorm``.

The checks read only the files ``write_results`` wrote and the reference
sets the campaign built, and recompute what they can with the few lines
below: IGD+ of each final population, the bound errors of every record,
the checkpoint and bound properties, and the summary and rank tables.
Each function returns a list of error messages; empty means passed.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12


def true_bounds(name: str, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact ideal and nadir points of the DTLZ1-6 fronts and their
    scaled (``s``) and inverted (``i``) variants."""
    base = name[1:] if name[0] in "si" else name
    family = int(base.removeprefix("dtlz"))
    ideal = np.zeros(m)
    if family == 1:
        nadir = np.full(m, 0.5)
    elif family in (2, 3, 4):
        nadir = np.ones(m)
    elif family in (5, 6):
        # on the degenerate curve theta_2.. = pi/4: f_1 and f_j (j < m)
        # carry cos(theta_1) times powers of cos(pi/4), f_m = sin(theta_1)
        nadir = np.array([2.0 ** (-(m - 2) / 2.0)]
                         + [2.0 ** (-(m - j) / 2.0) for j in range(2, m)]
                         + [1.0])
    else:
        raise ValueError(f"no exact bounds for {name}")
    if name.startswith("s"):
        scale = 10.0 ** np.arange(m)
        ideal, nadir = ideal * scale, nadir * scale
    return ideal, nadir


def igd_plus(objs: np.ndarray, ref: np.ndarray) -> float:
    """Mean over reference points of the nearest IGD+ distance."""
    gap = np.maximum(objs[None, :, :] - ref[:, None, :], 0.0)
    return float(np.sqrt((gap ** 2).sum(axis=2)).min(axis=1).mean())


def midranks(values: list[float]) -> list[float]:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def suite_of(name: str) -> str:
    return name[:5] if name[0] in "si" else "dtlz"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _runs(config: dict):
    """(problem, m, algorithm, normalization, run index) of every run."""
    for entry in config["problems"]:
        name, m = entry.split(":")
        for alg in config["algorithms"]:
            for kind in config["normalizations"]:
                for k in range(config["runs"]):
                    yield name, int(m), alg, kind, k


def check_campaign(config: dict, round_dir: Path) -> list[str]:
    """Check one round's results against recomputed values."""
    out = round_dir / "results"
    rois = np.load(round_dir / "roi.npz")
    mu = config["mu"]
    checkpoints = config["checkpoints"]
    snapped = [-(-cp // mu) * mu for cp in checkpoints]
    errors: list[str] = []
    # (problem, m, treatment) -> per-run records, in run order
    cells: dict[tuple[str, int, str], list[list[dict]]] = {}
    for name, m, alg, kind, k in _runs(config):
        stem = f"{name}_m{m}_{alg}_{kind}_r{k:02d}"
        label = f"{stem}:"
        try:
            rows = _read_rows(out / "runs" / f"{stem}.csv")
            pop = np.loadtxt(out / "runs" / f"{stem}_pop.csv", delimiter=",",
                             skiprows=1, ndmin=2)
        except OSError as exc:
            errors.append(f"{label} {exc}")
            continue
        ideal, nadir = true_bounds(name, m)
        span = nadir - ideal
        records = []
        for row in rows:
            rec = {key: float(val) for key, val in row.items()}
            rec["z_lb"] = np.array([rec[f"z_lb_{i + 1}"] for i in range(m)])
            rec["z_ub"] = np.array([rec[f"z_ub_{i + 1}"] for i in range(m)])
            records.append(rec)
        cells.setdefault((name, m, f"{alg}-{kind}"), []).append(records)

        if [int(r["checkpoint"]) for r in records] != checkpoints:
            errors.append(f"{label} checkpoints recorded "
                          f"{[r['checkpoint'] for r in records]}")
            continue
        if [int(r["evals"]) for r in records] != snapped:
            errors.append(f"{label} evals {[r['evals'] for r in records]} "
                          f"are not the generation boundaries {snapped}")
        if pop.shape != (mu, m) or not np.all(np.isfinite(pop)):
            errors.append(f"{label} final population is {pop.shape}, not "
                          f"{mu} finite rows")
            continue
        final = records[-1]
        igd = igd_plus((pop - ideal) / span, rois[f"{name}:{m}"])
        if not _close(igd, final["igd_plus_c"]):
            errors.append(f"{label} igd_plus_c {final['igd_plus_c']!r}, "
                          f"recomputed {igd!r}")
        for rec in records:
            lb = (rec["z_lb"] - ideal) / span
            ub = (rec["z_ub"] - ideal) / span
            for key, value in (("e_ideal", float(np.sum(lb ** 2))),
                               ("e_nadir", float(np.sum((ub - 1.0) ** 2))),
                               ("ore", float(np.std(ub - lb)))):
                if not _close(value, rec[key]):
                    errors.append(f"{label} {key} at {rec['checkpoint']:g} "
                                  f"is {rec[key]!r}, recomputed {value!r}")
        lbs = np.array([r["z_lb"] for r in records])
        if kind == "no":
            ubs = np.array([r["z_ub"] for r in records])
            if np.any(lbs != 0.0) or np.any(ubs != 1.0):
                errors.append(f"{label} 'no' moved its bounds off 0 and 1")
            continue
        if kind in ("bp", "ba") and np.any(np.diff(lbs, axis=0) > 0.0):
            errors.append(f"{label} best-so-far z_lb rose between "
                          "checkpoints")
        if np.any(final["z_lb"] > pop.min(axis=0)):
            errors.append(f"{label} final z_lb {final['z_lb']} exceeds the "
                          f"final population minimum {pop.min(axis=0)}")
    if not errors:
        errors += check_tables(out, cells, checkpoints)
    return errors


def check_tables(out: Path, cells: dict, checkpoints: list[int]
                 ) -> list[str]:
    """summary.csv, ranks.csv and rank_summary.csv against recomputed
    means, population standard deviations and midranks."""
    errors: list[str] = []
    # (problem, m) -> checkpoint position -> treatment -> mean IGD+-C
    means: dict[tuple[str, int], list[dict[str, float]]] = {}
    stds: dict[tuple[str, int, str], float] = {}
    for (name, m, treatment), runs in cells.items():
        per_cp = means.setdefault((name, m), [{} for _ in checkpoints])
        for pos in range(len(checkpoints)):
            vals = [records[pos]["igd_plus_c"] for records in runs]
            mean = sum(vals) / len(vals)
            per_cp[pos][treatment] = mean
            if pos == len(checkpoints) - 1:
                stds[(name, m, treatment)] = math.sqrt(
                    sum((v - mean) ** 2 for v in vals) / len(vals))

    def ranked(table: dict[str, float]) -> dict[str, float]:
        labels = sorted(table)
        return dict(zip(labels, midranks([table[t] for t in labels])))

    want_summary = {}
    want_ranks = {}
    suite_sums: dict[tuple[str, str, str], list[float]] = {}
    for (name, m), per_cp in means.items():
        for pos, cp in enumerate(checkpoints):
            ranks = ranked(per_cp[pos])
            for treatment, rank in ranks.items():
                mean = per_cp[pos][treatment]
                want_ranks[(name, str(m), str(cp), treatment)] = (mean, rank)
                suite_sums.setdefault((suite_of(name), str(cp), treatment),
                                      []).append(rank)
                if pos == len(checkpoints) - 1:
                    want_summary[(name, str(m), treatment)] = (
                        mean, stds[(name, m, treatment)], rank)
    want_suite = {key: (sum(r) / len(r), len(r))
                  for key, r in suite_sums.items()}

    tables = (
        ("summary.csv", ("problem", "m", "treatment"),
         ("mean_igdpc", "std_igdpc", "rank"), want_summary),
        ("ranks.csv", ("problem", "m", "checkpoint", "treatment"),
         ("mean_igdpc", "rank"), want_ranks),
        ("rank_summary.csv", ("suite", "checkpoint", "treatment"),
         ("avg_rank", "problems"), want_suite),
    )
    for filename, key_cols, value_cols, want in tables:
        rows = _read_rows(out / filename)
        got = {tuple(row[c] for c in key_cols):
               tuple(float(row[c]) for c in value_cols) for row in rows}
        if len(rows) != len(want) or set(got) != set(want):
            errors.append(f"{filename}: rows {sorted(got)} != expected "
                          f"{sorted(want)}")
            continue
        for key, values in want.items():
            if not all(_close(a, b) for a, b in zip(got[key], values)):
                errors.append(f"{filename} {key}: {got[key]} != recomputed "
                              f"{values}")
    return errors


def compare_trees(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between two result trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    errors = [f"{rel}: only in one of {a.parent.name}, {b.parent.name}"
              for rel in sorted(files_a ^ files_b)]
    errors += [f"{rel}: differs between {a.parent.name} and {b.parent.name}"
               for rel in sorted(files_a & files_b)
               if (a / rel).read_bytes() != (b / rel).read_bytes()]
    return errors
