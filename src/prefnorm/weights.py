"""Weight-vector sets on the unit simplex and the preference-driven shift.

Used both for decomposition weights (MOEA/D) and for simplex-shaped Pareto
front samples (linear/spherical DTLZ families).
"""
from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np
from scipy.spatial import cKDTree

from .ranking import _sq_dists


def das_dennis_lattice(m: int, divisions: int) -> np.ndarray:
    """All simplex lattice points with the given number of divisions.

    Returns an (C(divisions+m-1, m-1), m) array of vectors with non-negative
    entries summing to one, in lexicographic order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if divisions < 0:
        raise ValueError("divisions must be >= 0")
    if divisions == 0:
        return np.full((1, m), 1.0 / m)
    # stars and bars: the m - 1 bar positions among divisions + m - 1 slots
    # come in lexicographic order, and so do the gap counts between them
    slots = divisions + m - 1
    size = lattice_size(m, divisions)
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), m - 1)),
                       dtype=np.intp, count=size * (m - 1))
    edges = np.pad(bars.reshape(size, m - 1), ((0, 0), (1, 1)),
                   constant_values=(-1, slots))
    return (np.diff(edges, axis=1) - 1) / float(divisions)


def lattice_size(m: int, divisions: int) -> int:
    return comb(divisions + m - 1, m - 1)


def _reach(d: np.ndarray | float) -> np.ndarray | float:
    """A ball radius that holds every row NumPy puts within ``d``.

    The tree and ``np.linalg.norm`` sum the squares in different orders, so
    their distances differ by a few ulp; the relative margin covers that,
    and the absolute one keeps squared radii above the subnormal range.
    """
    return d * (1.0 + 1e-9) + 1e-150


def _farthest_picks(points: np.ndarray, dist: np.ndarray,
                    count: int) -> np.ndarray:
    """Positions of ``count`` greedy farthest-point picks from ``points``.

    ``dist`` holds each row's distance to the set picked so far and is
    updated in place; each pick takes its maximum, lowest index on ties.
    A pick at distance ``D`` can lower ``dist`` only for rows closer to it
    than ``D``, because no entry exceeds ``D``: rows outside that ball keep
    their bytes, so only the rows a k-d tree finds in it are recomputed, and
    the result equals a full recomputation after every pick.
    """
    tree = cKDTree(points)
    chosen = np.empty(count, dtype=int)
    for i in range(count):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        idx = np.asarray(tree.query_ball_point(points[nxt],
                                               _reach(dist[nxt])), dtype=int)
        dist[idx] = np.minimum(
            dist[idx], np.linalg.norm(points[idx] - points[nxt], axis=1))
    return chosen


def _distance_to_set(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Each row's distance to its nearest anchor row.

    The bytes equal the running minimum of ``np.linalg.norm(points - row,
    axis=1)`` over the anchors.  A k-d tree finds each row's two nearest
    anchors; where the second lies beyond the first's reach, the first is
    the only candidate, and otherwise the exact minimum is taken over every
    anchor within that reach.
    """
    tree = cKDTree(anchors)
    near, nearest = tree.query(points, k=2)
    dist = np.linalg.norm(points - anchors[nearest[:, 0]], axis=1)
    reach = _reach(near[:, 0])
    for j in np.flatnonzero(near[:, 1] <= reach):
        cands = tree.query_ball_point(points[j], reach[j])
        dist[j] = np.linalg.norm(points[j] - anchors[cands], axis=1).min()
    return dist


def farthest_point_subsample(points: np.ndarray, count: int) -> np.ndarray:
    """Greedy farthest-point selection of ``count`` rows.

    The first pick is the row closest to the centroid (deterministic), each
    later pick maximizes the distance to the already selected set.  Ties are
    broken by the lowest index.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if count >= n:
        return points.copy()
    if count <= 0:
        return points[:0].copy()
    centroid = points.mean(axis=0)
    first = int(np.argmin(np.linalg.norm(points - centroid, axis=1)))
    dist = np.linalg.norm(points - points[first], axis=1)
    rest = _farthest_picks(points, dist, count - 1)
    return points[np.concatenate(([first], rest))]


def uniform_simplex_set(m: int, count: int,
                        engine: np.random.Generator) -> np.ndarray:
    """Exactly ``count`` well-spread points on the unit simplex.

    The largest Das-Dennis lattice that fits inside ``count`` is used
    verbatim; the remainder is completed by farthest-point picks from a
    random Dirichlet(1) candidate pool drawn from ``engine``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if m == 1:
        return np.ones((count, 1))
    h = 0
    while lattice_size(m, h + 1) <= count:
        h += 1
    base = das_dennis_lattice(m, h)
    missing = count - base.shape[0]
    if missing == 0:
        return base
    pool = engine.dirichlet(np.ones(m), size=max(4 * missing, 1000))
    dist = _distance_to_set(pool, base)
    return np.vstack([base, pool[_farthest_picks(pool, dist, missing)]])


def project_to_simplex(z: np.ndarray) -> np.ndarray:
    """Euclidean projection of a point onto the unit simplex."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError("expected a vector")
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, z.size + 1)
    cond = u - css / k > 0
    rho = int(np.max(np.flatnonzero(cond))) + 1
    theta = css[rho - 1] / rho
    return np.maximum(z - theta, 0.0)


def nums_shift(weights: np.ndarray, z: np.ndarray, tau: float) -> np.ndarray:
    """Shift a weight set toward the reference point's simplex projection.

    Each weight vector slides along the ray from the pivot ``c`` (the
    Euclidean projection of ``z`` onto the simplex) through itself.  With
    ``t`` the vector's relative position between the pivot and the simplex
    boundary along that ray, the new position is ``c + tau * t**(1 - tau) *
    (w - c)``.  Vectors closer to the pivot contract proportionally more, so
    the shifted set is biased toward the preferred region while its extent
    shrinks linearly with ``tau``; ``tau = 1`` leaves the set untouched.

    Parameters
    ----------
    weights : np.ndarray
        (N, m) simplex points.
    z : np.ndarray
        Reference point in objective space.
    tau : float
        Spread parameter in (0, 1].

    Returns
    -------
    np.ndarray
        (N, m) shifted simplex points.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    weights = np.asarray(weights, dtype=float)
    z = np.asarray(z, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != z.size:
        raise ValueError("weights must be (N, m) with m matching z")
    if tau == 1.0:
        return weights.copy()
    pivot = project_to_simplex(z)
    diff = weights - pivot
    # distance multiplier to the simplex boundary along each ray; the rays
    # stay inside the sum-to-one hyperplane, so only w_j >= 0 can bind
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.where(diff < 0.0, pivot / -diff, np.inf)
    s_max = np.min(steps, axis=1)
    t = np.where(np.isfinite(s_max) & (s_max > 0.0), 1.0 / s_max, 0.0)
    scale = tau * np.power(t, 1.0 - tau)
    shifted = pivot + scale[:, None] * diff
    return np.maximum(shifted, 0.0)


def neighborhoods(weights: np.ndarray, t_size: int) -> np.ndarray:
    """Indices of the ``t_size`` nearest weight vectors of each weight.

    Distance ties resolve to the lower index; each weight is its own nearest
    neighbour.
    """
    n = weights.shape[0]
    if not 1 <= t_size <= n:
        raise ValueError(f"t_size must lie in [1, {n}], got {t_size}")
    # keep the sqrt: it can merge close squares into ties broken by index
    d = np.sqrt(_sq_dists(weights, weights))
    order = np.argsort(d, axis=1, kind="stable")
    return order[:, :t_size]
