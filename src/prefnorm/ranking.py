"""Dominance relations, non-dominated sorting, crowding and r-dominance."""
from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)


def _all_le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) matrix of ``a[i] <= b[j]`` in every objective.

    Accumulated one objective at a time; the 2-d comparisons beat a single
    3-d broadcast by a wide margin for the population sizes used here.
    """
    le = a[:, 0, None] <= b[None, :, 0]
    for k in range(1, a.shape[1]):
        le &= a[:, k, None] <= b[None, :, k]
    return le


def _sq_dists(a: np.ndarray, b: np.ndarray, plus: bool = False) -> np.ndarray:
    """(len(a), len(b)) squared distances; ``plus`` counts only a > b (IGD+).

    Built one objective at a time like ``_all_le`` and summed in the order
    of ``np.sum(axis=-1)`` over a short axis (in sequence below 8 terms,
    else NumPy's 8-lane pairwise sum), so the bytes match that reduction.
    """
    def term(k: int) -> np.ndarray:
        d = a[:, k, None] - b[None, :, k]
        if plus:
            np.maximum(d, 0.0, out=d)
        return np.multiply(d, d, out=d)

    m = a.shape[1]
    if m < 8:
        total, tail = term(0), 1
    else:
        r = [term(k) for k in range(8)]
        tail = m - m % 8
        for k in range(8, tail):
            r[k % 8] += term(k)
        total = (((r[0] + r[1]) + (r[2] + r[3]))
                 + ((r[4] + r[5]) + (r[6] + r[7])))
    for k in range(tail, m):
        total += term(k)
    return total


def domination_matrix(objs: np.ndarray) -> np.ndarray:
    """Pairwise Pareto dominance of the rows of an (N, m) objective array.

    Returns
    -------
    np.ndarray
        Boolean (N, N) matrix D with D[i, j] True iff row i dominates row j.
    """
    objs = np.asarray(objs, dtype=float)
    le = _all_le(objs, objs)
    # strictly-better-somewhere is the complement of the reversed "<="
    return le & ~le.T


def nondominated_mask(objs: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``objs`` not Pareto-dominated by any row.

    Duplicate rows do not dominate each other, so all copies of a
    non-dominated vector are kept.
    """
    objs = np.asarray(objs, dtype=float)
    if objs.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return ~domination_matrix(objs).any(axis=0)


def fronts_from_matrix(dom: np.ndarray, size: int | None = None
                       ) -> list[list[int]]:
    """Peel non-domination levels from a pairwise dominance matrix.

    Works for any irreflexive relation.  If the relation contains a cycle
    (possible for r-dominance with intermediate delta), the remaining
    individuals are assigned to one final level instead of looping forever.
    Peeling stops once the levels placed hold at least ``size`` members;
    ``None`` places every member.
    """
    dom = np.asarray(dom)
    if dom.ndim != 2 or dom.shape[0] != dom.shape[1]:
        raise ValueError("expected a square (N, N) dominance matrix, got "
                         f"shape {dom.shape}")
    n = dom.shape[0]
    if size is not None and size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    size = n if size is None else min(size, n)
    # dominator counts as float32 stay exact integers below 2**24; a placed
    # member's count is -1 and never changes again, since all of its
    # dominators were placed before it
    dom32 = dom.astype(np.float32)
    counts = dom32.sum(axis=0)
    fronts: list[list[int]] = []
    placed = 0
    while placed < size:
        zero = counts == 0
        current = np.flatnonzero(zero)
        if current.size == 0:
            leftover = np.flatnonzero(counts > 0)
            logger.warning("cyclic dominance relation; %d individuals lumped "
                           "into the last level", leftover.size)
            fronts.append(leftover.tolist())
            break
        fronts.append(current.tolist())
        placed += current.size
        counts[current] = -1.0
        counts -= zero @ dom32
    return fronts


def nondominated_sort(objs: np.ndarray, size: int | None = None
                      ) -> list[list[int]]:
    """Fast non-dominated sorting of an (N, m) objective array.

    Sorting stops once the levels returned hold at least ``size`` rows;
    ``None`` sorts every row.  nsga2 and rnsga2 pass their mu, so they sort
    only as far as their survivors.  r2nsga2 peels its r-dominance levels
    with ``fronts_from_matrix`` in full, so every cycle is still lumped and
    logged.

    Returns
    -------
    list of list of int
        Index partition by non-domination level, level 0 first.
    """
    objs = np.asarray(objs, dtype=float)
    if objs.ndim != 2:
        raise ValueError("expected an (N, m) objective array")
    return fronts_from_matrix(domination_matrix(objs), size)


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """Crowding distance of each row within one front.

    Boundary solutions per objective get infinity; interior ones accumulate
    the normalized gap between their neighbours.  A zero objective range
    contributes nothing.
    """
    objs = np.asarray(objs, dtype=float)
    n, m = objs.shape
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for j in range(m):
        order = np.argsort(objs[:, j], kind="stable")
        col = objs[order, j]
        rng = col[-1] - col[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if rng <= 0.0:
            continue
        gaps = (col[2:] - col[:-2]) / rng
        interior = order[1:-1]
        finite = ~np.isinf(dist[interior])
        dist[interior[finite]] += gaps[finite]
    return dist


def r_domination_matrix(objs: np.ndarray, dists: np.ndarray,
                        delta: float) -> np.ndarray:
    """Pairwise r-dominance over a population.

    Row i r-dominates row j when it Pareto-dominates j, or when the pair is
    Pareto-incomparable and i's distance is lower by more than ``delta``
    (in [0, 1]) times the range of ``dists``; a zero range, or delta = 1,
    leaves plain Pareto dominance.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    objs = np.asarray(objs, dtype=float)
    dists = np.asarray(dists, dtype=float)
    dom = domination_matrix(objs)
    rng = float(dists.max() - dists.min()) if dists.size else 0.0
    if rng <= 0.0:
        return dom
    diff = (dists[:, None] - dists[None, :]) / rng
    # i also wins a Pareto-incomparable pair by distance; where i
    # dominates j, dom already holds, so ruling out ~dom.T is enough
    return dom | ((diff < -delta) & ~dom.T)
