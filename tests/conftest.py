"""Shared brute-force oracles and helpers for the test suite.

The oracles deliberately use plain double loops and per-level recomputation
so they share no code path with the vectorized implementations they check.
"""
from __future__ import annotations

import numpy as np
import pytest

from prefnorm.core import make_engine


def oracle_dominates(a, b) -> bool:
    """Plain-loop Pareto dominance: a <= b everywhere, < somewhere."""
    better_somewhere = False
    for ai, bi in zip(a, b):
        if ai > bi:
            return False
        if ai < bi:
            better_somewhere = True
    return better_somewhere


def oracle_nondominated_mask(objs) -> np.ndarray:
    """Quadratic scan marking rows no other row dominates."""
    objs = np.asarray(objs, dtype=float)
    n = len(objs)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and oracle_dominates(objs[j], objs[i]):
                keep[i] = False
                break
    return keep


def oracle_sort(objs) -> list[np.ndarray]:
    """Front levels by repeatedly peeling the oracle nondominated set."""
    objs = np.asarray(objs, dtype=float)
    remaining = np.arange(len(objs))
    fronts = []
    while remaining.size:
        mask = oracle_nondominated_mask(objs[remaining])
        fronts.append(remaining[mask])
        remaining = remaining[~mask]
    return fronts


def oracle_r_dominance(fa, fb, d_a, d_b, d_min, d_max, delta) -> int:
    """Scalar r-dominance of one pair: 1 if a wins, -1 if b wins, else 0.

    ``d_a``/``d_b`` are the pair's reference-point distances and
    ``d_min``/``d_max`` the distance extremes of the population.
    """
    if oracle_dominates(fa, fb):
        return 1
    if oracle_dominates(fb, fa):
        return -1
    rng = d_max - d_min
    if rng <= 0.0:
        return 0
    diff = (d_a - d_b) / rng
    if diff < -delta:
        return 1
    if diff > delta:
        return -1
    return 0


def oracle_igd_plus(reference, objs) -> float:
    """Double-loop IGD+ over an explicit reference set."""
    total = 0.0
    for ref in reference:
        best = None
        for sol in objs:
            dist = 0.0
            for s, r in zip(sol, ref):
                dist += max(s - r, 0.0) ** 2
            dist = dist ** 0.5
            if best is None or dist < best:
                best = dist
        total += best
    return total / len(reference)


def oracle_unbounded_nadir(objs) -> np.ndarray:
    """Componentwise max over the oracle nondominated subset."""
    objs = np.asarray(objs, dtype=float)
    keep = oracle_nondominated_mask(objs)
    return objs[keep].max(axis=0)


def oracle_distance_to_set(points, anchors) -> np.ndarray:
    """Each row's distance to its nearest anchor: one full pass per anchor."""
    dist = np.linalg.norm(points - anchors[0], axis=1)
    for row in anchors[1:]:
        np.minimum(dist, np.linalg.norm(points - row, axis=1), out=dist)
    return dist


def oracle_farthest_picks(points, dist, count) -> np.ndarray:
    """Greedy farthest-point picks recomputing every distance per pick.

    ``dist`` is updated in place, as by the pruned version it checks.
    """
    chosen = np.empty(count, dtype=int)
    for i in range(count):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1),
                   out=dist)
    return chosen


@pytest.fixture
def engine():
    return make_engine(12345)


def random_objs(engine, n, m, duplicates=False):
    """Random objective matrix; optionally repeat some rows."""
    objs = engine.uniform(0.0, 1.0, size=(n, m))
    if duplicates and n >= 4:
        objs[n // 2] = objs[0]
        objs[-1] = objs[1]
    return objs
