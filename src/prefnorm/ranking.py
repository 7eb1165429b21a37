"""Dominance relations, non-dominated sorting, crowding and r-dominance."""
from __future__ import annotations

import logging
import math

import numpy as np

logger = logging.getLogger(__name__)


def _all_le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., len(a), len(b)) matrix of ``a[i] <= b[j]`` in every objective.

    ``a`` and ``b`` share any leading run axes.  Accumulated one objective
    at a time; these comparisons beat a single broadcast over the objective
    axis by a wide margin for the population sizes used here.
    """
    le = a[..., :, None, 0] <= b[..., None, :, 0]
    for k in range(1, a.shape[-1]):
        le &= a[..., :, None, k] <= b[..., None, :, k]
    return le


def _sq_dists(a: np.ndarray, b: np.ndarray, plus: bool = False) -> np.ndarray:
    """(..., len(a), len(b)) squared distances between the rows of ``a``
    and ``b``, whose leading run axes broadcast; ``plus`` counts only
    a > b (IGD+).

    Built one objective at a time like ``_all_le`` and summed in the order
    of ``np.sum(axis=-1)`` over a short axis (in sequence below 8 terms,
    else NumPy's 8-lane pairwise sum), so the bytes match that reduction.
    """
    def term(k: int) -> np.ndarray:
        d = a[..., :, k, None] - b[..., None, :, k]
        if plus:
            np.maximum(d, 0.0, out=d)
        return np.multiply(d, d, out=d)

    m = a.shape[-1]
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
    """Pairwise Pareto dominance within each population of an (..., N, m)
    objective block.

    Returns
    -------
    np.ndarray
        Boolean (..., N, N) block D with D[..., i, j] True iff row i
        dominates row j of the same population.
    """
    objs = np.asarray(objs, dtype=float)
    le = _all_le(objs, objs)
    # strictly-better-somewhere is the complement of the reversed "<="
    return le & ~np.swapaxes(le, -1, -2)


def nondominated_mask(objs: np.ndarray) -> np.ndarray:
    """(..., N) mask of the rows of each population in an (..., N, m)
    block that no row of the same population Pareto-dominates.

    Duplicate rows do not dominate each other, so all copies of a
    non-dominated vector are kept.
    """
    return ~domination_matrix(objs).any(axis=-2)


def fronts_from_matrix(dom: np.ndarray, size: int | None = None
                       ) -> np.ndarray:
    """Peel the non-domination levels of every population in a block.

    ``dom`` holds one (N, N) relation per population, (..., N, N) in all;
    the peel takes one level of every population per step.  Works for any
    irreflexive relation.  If a population's relation contains a cycle
    (possible for r-dominance with intermediate delta), its remaining
    members are assigned to one final level, with a warning, instead of
    looping forever.  A population's peel stops once its levels hold at
    least ``size`` members; ``None`` places every member.

    Returns
    -------
    np.ndarray
        (..., N) level of each member, level 0 first; a member the peel
        did not reach gets level N.
    """
    dom = np.asarray(dom)
    shape = dom.shape
    if dom.ndim < 2 or shape[-1] != shape[-2]:
        raise ValueError("expected square (..., N, N) dominance matrices, "
                         f"got shape {shape}")
    n = shape[-1]
    if size is not None and size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    size = n if size is None else min(size, n)
    dom = dom.reshape(math.prod(shape[:-2]), n, n)
    levels = np.full(dom.shape[:2], n)
    todo = [size] * len(dom)
    level = 0
    # level 0 is the members nobody dominates
    zero = ~dom.any(axis=1)
    while any(left > 0 for left in todo):
        got = zero.sum(axis=1).tolist()
        for run, left in enumerate(todo):
            if left > 0 and not got[run]:
                leftover = levels[run] == n
                logger.warning("cyclic dominance relation; %d individuals "
                               "lumped into the last level",
                               np.count_nonzero(leftover))
                levels[run, leftover] = level
                got[run] = left
        levels[zero] = level
        todo = [left - placed for left, placed in zip(todo, got)]
        live = [left > 0 for left in todo]
        if not any(live):
            break
        if not level:
            # dominator counts as float32 stay exact integers below 2**24
            dom32 = dom.astype(np.float32)
        level += 1
        # the next level is the members none of whose dominators is left
        free = levels == n
        zero = (np.vecmat(free, dom32) == 0) & free
        if not all(live):
            zero &= np.array(live)[:, None]
    return levels.reshape(shape[:-1])


def nondominated_sort(objs: np.ndarray, size: int | None = None
                      ) -> np.ndarray | list[list[int]]:
    """Fast non-dominated sorting of every population in an (..., N, m)
    objective block.

    Sorting a population stops once its levels hold at least ``size``
    rows; ``None`` sorts every row.  nsga2 and rnsga2 pass their mu, and
    r2nsga2 passes it to ``fronts_from_matrix``, so every GA sorts only as
    far as its survivors.

    Returns
    -------
    np.ndarray or list of list of int
        A block of R populations gets the (R, N) level array of
        :func:`fronts_from_matrix`.  One (N, m) population gets its index
        partition by non-domination level, level 0 first.
    """
    objs = np.asarray(objs, dtype=float)
    if objs.ndim < 2:
        raise ValueError("expected an (..., N, m) objective array")
    levels = fronts_from_matrix(domination_matrix(objs), size)
    if objs.ndim > 2:
        return levels
    placed = levels[levels < len(levels)]
    return [np.flatnonzero(levels == k).tolist()
            for k in range(placed.max() + 1 if placed.size else 0)]


def crowding_distance(objs: np.ndarray, groups: np.ndarray | None = None
                      ) -> np.ndarray:
    """Crowding distance of each row of ``objs`` within its front.

    ``groups`` labels the front of each of the (K, m) rows with a
    non-negative integer, so one call scores every front of a block;
    ``None`` makes the rows one front.  Boundary solutions of a front per
    objective get infinity; interior ones accumulate the normalized gap
    between their neighbours.  A zero objective range contributes nothing,
    and a front of at most two rows is all boundary.  Ties in an objective
    keep row order.
    """
    objs = np.asarray(objs, dtype=float)
    k, m = objs.shape
    groups = np.zeros(k, dtype=int) if groups is None else np.asarray(groups)
    dist = np.zeros(k)
    if k == 0:
        return dist
    # sorted by group first, each front is one run of positions: its first
    # and last positions are its boundaries in every objective
    sizes = np.bincount(groups)
    sizes = sizes[sizes > 0]
    last = np.cumsum(sizes) - 1
    starts = last + 1 - sizes
    ends = np.concatenate((starts, last))
    front = np.repeat(np.arange(len(sizes)), sizes)[1:-1]
    for j in range(m):
        order = np.lexsort((objs[:, j], groups))
        col = objs[:, j][order]
        rng = col[last] - col[starts]
        # a zero range adds 0.0 (dist never holds -0.0, so that changes
        # nothing); the gap across two fronts lands on a boundary, which
        # the inf below overwrites
        rng[rng <= 0.0] = np.inf
        dist[order[1:-1]] += (col[2:] - col[:-2]) / rng[front]
        dist[order[ends]] = np.inf
    return dist


def r_domination_matrix(objs: np.ndarray, dists: np.ndarray,
                        delta: float) -> np.ndarray:
    """Pairwise r-dominance within each population of a block.

    ``objs`` is (..., N, m) and ``dists`` (..., N).  Row i r-dominates row
    j when it Pareto-dominates j, or when the pair is Pareto-incomparable
    and i's distance is lower by more than ``delta`` (in [0, 1]) times the
    range of its population's ``dists``: (d_i - d_j) / range < -delta.  A
    zero range, or delta = 1, leaves plain Pareto dominance.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    objs = np.asarray(objs, dtype=float)
    dists = np.asarray(dists, dtype=float)
    dom = domination_matrix(objs)
    if dists.shape[-1] == 0:
        return dom
    # a zero range means equal distances, so every difference is 0 and no
    # pair is won by distance
    rng = dists.max(axis=-1) - dists.min(axis=-1)
    cut = _quotient_cut(np.where(rng > 0.0, rng, 1.0), -delta)
    win = (dists[..., :, None] - dists[..., None, :]) < cut[..., None, None]
    # i also wins a Pareto-incomparable pair by distance; where i
    # dominates j, dom already holds, so ruling out ~dom.T is enough
    return dom | (win & ~np.swapaxes(dom, -1, -2))


def _quotient_cut(rng: np.ndarray, c: float) -> np.ndarray:
    """The least float x with x / rng >= c in floating point, per rng > 0.

    The rounded quotient never decreases as x grows, so x / rng < c holds
    exactly for the x below the cut: one comparison per pair instead of a
    division.  The cut is first guessed as rng times the midpoint between
    c and the float below it, within an ulp or two, then stepped to.
    """
    below = np.nextafter(c, -np.inf)
    x = 0.5 * (rng * below + rng * c)
    while (low := x / rng < c).any():
        x = np.where(low, np.nextafter(x, np.inf), x)
    while (high := (down := np.nextafter(x, -np.inf)) / rng >= c).any():
        x = np.where(high, down, x)
    return x
