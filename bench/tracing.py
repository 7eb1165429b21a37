"""Span tracing around calls into the ``prefnorm`` modules.

The tracer replaces a function at each place its caller looks it up (the
module global a caller reads, a class attribute, or an entry of the
algorithm registry) with a wrapper that records one span: name, start,
end and the enclosing span.  Spans stay in memory until the traced
campaign ends.  A span's self time is its duration minus the time its
direct children cover; the self times of all spans add up to the root
span's duration.

Only call sites that cross a layer are patched, plus the ranking
internals the per-layer table names.  ``variation.polynomial_mutation``
calls ``polynomial_mutation_batch`` inside its own module, and that inner
call is left unpatched, so single-row mutation is charged to
``polynomial_mutation`` alone.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np

ROOT = "campaign"


def traced_sites(pkg) -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) of every patched lookup site."""
    alg, harness, norm = pkg.algorithms, pkg.harness, pkg.normalization
    problems, ranking = pkg.problems, pkg.ranking
    sites = [
        ("problems.evaluate_batch", problems.Problem, "evaluate_batch"),
        ("weights.farthest_point_subsample", problems,
         "farthest_point_subsample"),
        ("weights.uniform_simplex_set", problems, "uniform_simplex_set"),
        ("weights.uniform_simplex_set", alg, "uniform_simplex_set"),
        ("variation.sbx_batch", alg, "sbx_batch"),
        ("variation.polynomial_mutation_batch", alg,
         "polynomial_mutation_batch"),
        ("variation.polynomial_mutation", alg, "polynomial_mutation"),
        ("variation.de_rand_1", alg, "de_rand_1"),
        ("normalization.update_state", alg, "update_state"),
        ("normalization.update_bounded_archive_objs", norm,
         "update_bounded_archive_objs"),
        ("normalization.normalize_value", alg, "normalize_value"),
        ("ranking.nondominated_sort", alg, "nondominated_sort"),
        ("ranking.domination_matrix", ranking, "domination_matrix"),
        ("ranking.r_domination_matrix", alg, "r_domination_matrix"),
        ("ranking.fronts_from_matrix", ranking, "fronts_from_matrix"),
        ("ranking.fronts_from_matrix", alg, "fronts_from_matrix"),
        ("ranking.crowding_distance", alg, "crowding_distance"),
        ("ranking.nondominated_mask", norm, "nondominated_mask"),
        ("ranking.nondominated_mask", problems, "nondominated_mask"),
        ("algorithms.epsilon_clear", alg, "epsilon_clear"),
        ("algorithms.rnsga2_environmental_selection", alg,
         "rnsga2_environmental_selection"),
        ("algorithms.moead_nums_replacement", alg, "moead_nums_replacement"),
        ("indicators.igd_plus_c", harness, "igd_plus_c"),
        ("indicators.build_roi_reference_set", harness,
         "build_roi_reference_set"),
        ("indicators.bound_errors", harness, "e_ideal"),
        ("indicators.bound_errors", harness, "e_nadir"),
        ("indicators.bound_errors", harness, "ore"),
        ("harness.load_config", harness, "load_config"),
        ("harness.build_cell_roi", harness, "build_cell_roi"),
        ("harness.execute_campaign", harness, "execute_campaign"),
        ("harness.write_results", harness, "write_results"),
    ]
    # every class that defines its own front sampler; a scaled problem's
    # sampler calls its base's, which then shows as a nested span
    for cls in vars(problems).values():
        if (isinstance(cls, type) and issubclass(cls, problems.Problem)
                and "sample_pf" in vars(cls) and cls is not problems.Problem):
            sites.append(("problems.sample_pf", cls, "sample_pf"))
    # the harness looks the four run loops up in this shared dict
    for key in alg.ALGORITHMS:
        sites.append(("algorithms.runner", alg.ALGORITHMS, key))
    return sites


def _lookup(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _assign(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder with a patch/restore lifecycle."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rows = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        count_rows = name == "problems.evaluate_batch"

        def traced(*args, **kwargs):
            if count_rows:
                self.rows += len(args[1])
            idx = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self, sites) -> None:
        for name, owner, attr in sites:
            original = _lookup(owner, attr)
            _assign(owner, attr, self._wrap(name, original))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            _assign(owner, attr, original)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_ids, dtype=np.int32),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "start": np.asarray(self.starts),
            "end": np.asarray(self.ends),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and summed ``self_s``."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=dur.size)
        self_s = dur - covered
        k = len(self.names)
        calls = np.bincount(spans["name_id"], minlength=k)
        total = np.bincount(spans["name_id"], weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(total[i])}
                for i, name in enumerate(self.names)}
