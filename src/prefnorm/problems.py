"""DTLZ test problems, their scaled and inverted variants, and front samplers.

Only this module maps a name to a problem: the registry, the suites that
group its names in rank tables and each problem's base ``family`` live here.
All problems are box-constrained to [0, 1]^n for minimization.  The number of
distance variables k is fixed per problem (5 for DTLZ1, 10 for DTLZ2-6, 20
for DTLZ7), so n = m + k - 1.  Scaled variants multiply the i-th objective by
10^(i-1); inverted variants flip each objective inside the attainable box.

The front of DTLZ5/6 with four or more objectives is only partially
characterized in the literature; every stored ideal/nadir point and every
front sample here consistently uses the degenerate curve traced by the
g = 0 surface.  For DTLZ7, dominance between g = 1 solutions separates per
position coordinate, so front membership reduces to each coordinate lying in
the strict running-maximum set of t (1 + sin(3 pi t)); the numeric constants
(see scripts/derive_pf_constants.py) follow from the interior maximum of
that function.
"""
from __future__ import annotations

from functools import cached_property, partial
from typing import Callable

import numpy as np

# unused here; kept only because bench/tracing.py patches this name
from .ranking import nondominated_mask
from .weights import farthest_point_subsample, uniform_simplex_set

# interior maximum of u(t) = t * (1 + sin(3 pi t)) on [0, 1]; the largest
# position value on the DTLZ7 front and the per-term cap of its last
# objective (scripts/derive_pf_constants.py)
DTLZ7_T_STAR = 0.8594008570145305
DTLZ7_U_STAR = 1.6929956344984227

_K_BY_FAMILY = {1: 5, 2: 10, 3: 10, 4: 10, 5: 10, 6: 10, 7: 20}


def _pf_pool_size(count: int) -> int:
    """Candidate rows a thinned front sampler draws for ``count`` picks."""
    return count if count >= 20000 else max(4 * count, 4000)


def _check_batch(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != n:
        raise ValueError(f"expected {n} decision variables, got {x.shape[1]}")
    return x


def _g_rastrigin(xm: np.ndarray) -> np.ndarray:
    k = xm.shape[1]
    c = xm - 0.5
    return 100.0 * (k + (c * c - np.cos(20.0 * np.pi * c)).sum(axis=1))


def _g_sphere(xm: np.ndarray) -> np.ndarray:
    c = xm - 0.5
    return (c * c).sum(axis=1)


def _nested_objectives(scale: np.ndarray, head: np.ndarray,
                       tail: np.ndarray) -> np.ndarray:
    """f_1 = scale * prod(head) and f_j = scale * prod(head[:m-j]) * tail[m-j].

    ``head`` and ``tail`` are (N, m-1) per-position factors, ``scale`` the
    per-row (1 + g) factor; DTLZ1 and DTLZ2 differ only in these.
    """
    n_rows, m = head.shape[0], head.shape[1] + 1
    cum = np.empty((n_rows, m))
    cum[:, 0] = 1.0
    head.cumprod(axis=1, out=cum[:, 1:])
    f = np.empty((n_rows, m))
    scale = scale[:, None]
    f[:, :1] = scale * cum[:, m - 1:]
    f[:, 1:] = scale * cum[:, m - 2::-1] * tail[:, ::-1]
    return f


def _linear_objectives(pos: np.ndarray, g: np.ndarray) -> np.ndarray:
    """DTLZ1-shaped objectives from position variables and g values."""
    return _nested_objectives(0.5 * (1.0 + g), pos, 1.0 - pos)


def _spherical_objectives(theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """DTLZ2-shaped objectives from angles (radians) and g values."""
    return _nested_objectives(1.0 + g, np.cos(theta), np.sin(theta))


def _dtlz5_theta(pos: np.ndarray, g: np.ndarray) -> np.ndarray:
    theta = np.empty_like(pos)
    theta[:, 0] = pos[:, 0] * np.pi / 2.0
    if pos.shape[1] > 1:
        gc = g[:, None]
        theta[:, 1:] = np.pi / (4.0 * (1.0 + gc)) * (1.0 + 2.0 * gc * pos[:, 1:])
    return theta


class Problem:
    """A box-constrained minimization problem with a known front geometry.

    Attributes
    ----------
    name : str
    m : int
        Number of objectives.
    n : int
        Number of decision variables.
    lower, upper : np.ndarray
        Box bounds, here always 0 and 1.
    true_ideal, true_nadir : np.ndarray
        Exact objective-space extremes of the (sampled) front.
    """

    family: int = 0  # DTLZ number; a variant has its base's
    factors: float | np.ndarray = 1.0  # 10^(i-1) on scaled variants

    def __init__(self, name: str, m: int):
        if m < 2:
            raise ValueError(f"need at least 2 objectives, got m={m}")
        self.name = name
        self.m = m
        self.k = _K_BY_FAMILY[self.family]
        self.n = m + self.k - 1
        self.lower = np.zeros(self.n)
        self.upper = np.ones(self.n)
        self.true_ideal, self.true_nadir = self._front_box()

    def _front_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[:, :self.m - 1], x[:, self.m - 1:]

    def _g_and_f(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _objectives(self, x: np.ndarray) -> np.ndarray:
        return self._g_and_f(x)[1]

    def evaluate_batch(self, x: np.ndarray) -> np.ndarray:
        """Objective matrix of an (N, n) batch; no bounds check (hot path)."""
        return self._objectives(_check_batch(x, self.n))

    def sample_pf(self, count: int,
                  engine: np.random.Generator) -> np.ndarray:
        """``count`` well-spread objective vectors on the front."""
        raise NotImplementedError

    def __repr__(self):
        return f"{self.name}(m={self.m}, n={self.n})"


class DTLZ1(Problem):
    family = 1

    def _front_box(self):
        return np.zeros(self.m), np.full(self.m, 0.5)

    def _g_and_f(self, x):
        pos, xm = self._split(x)
        g = _g_rastrigin(xm)
        return g, _linear_objectives(pos, g)

    def sample_pf(self, count, engine):
        return 0.5 * uniform_simplex_set(self.m, count, engine)


class DTLZ2(Problem):
    """Unit-sphere front; DTLZ3 and DTLZ4 change only g and the angles."""

    family = 2
    g_func = staticmethod(_g_sphere)

    def _front_box(self):
        return np.zeros(self.m), np.ones(self.m)

    def sample_pf(self, count, engine):
        w = uniform_simplex_set(self.m, count, engine)
        return w / np.linalg.norm(w, axis=1, keepdims=True)

    def _angles(self, pos):
        return pos * np.pi / 2.0

    def _g_and_f(self, x):
        pos, xm = self._split(x)
        g = self.g_func(xm)
        return g, _spherical_objectives(self._angles(pos), g)


class DTLZ3(DTLZ2):
    family = 3
    g_func = staticmethod(_g_rastrigin)


class DTLZ4(DTLZ2):
    family = 4
    alpha = 100.0

    def _angles(self, pos):
        return pos ** self.alpha * np.pi / 2.0


class _DegenerateCurve(Problem):
    """Common geometry of DTLZ5/6: the g = 0 surface is a curve.

    On that curve every objective except the last is a positive multiple of
    cos(theta_1) and the last is sin(theta_1).  The sampler's pool steps
    theta_1 up through [0, pi/2], so f_1..f_(m-1) fall and f_m rises row by
    row: no pool row dominates another, and the pool needs no filter.
    """

    xm_opt: float  # distance-variable value at which g = 0

    def _front_box(self):
        m = self.m
        nadir = np.empty(m)
        nadir[m - 1] = 1.0
        nadir[0] = 2.0 ** (-(m - 2) / 2.0)
        for j in range(2, m):
            nadir[j - 1] = 2.0 ** (-(m - j) / 2.0)
        return np.zeros(m), nadir

    def sample_pf(self, count, engine):
        pool_n = _pf_pool_size(count)
        x = np.full((pool_n, self.n), 0.5)
        x[:, 0] = np.linspace(0.0, 1.0, pool_n)
        x[:, self.m - 1:] = self.xm_opt
        return farthest_point_subsample(self.evaluate_batch(x), count)


class DTLZ5(_DegenerateCurve):
    family = 5
    xm_opt = 0.5

    def _g_and_f(self, x):
        pos, xm = self._split(x)
        g = _g_sphere(xm)
        return g, _spherical_objectives(_dtlz5_theta(pos, g), g)


class DTLZ6(_DegenerateCurve):
    family = 6
    xm_opt = 0.0

    def _g_and_f(self, x):
        pos, xm = self._split(x)
        g = np.sum(xm ** 0.1, axis=1)
        return g, _spherical_objectives(_dtlz5_theta(pos, g), g)


def _dtlz7_efficient_grid(resolution: int = 200001) -> np.ndarray:
    """Grid values of t whose u(t) = t(1+sin(3 pi t)) beats all smaller t."""
    t = np.linspace(0.0, 1.0, resolution)
    u = t * (1.0 + np.sin(3.0 * np.pi * t))
    run = np.maximum.accumulate(u)
    keep = np.ones(resolution, dtype=bool)
    keep[1:] = u[1:] > run[:-1]
    return t[keep]


class DTLZ7(Problem):
    family = 7
    _eff_grid: np.ndarray | None = None

    def _front_box(self):
        m = self.m
        ideal = np.zeros(m)
        ideal[m - 1] = 2.0 * m - (m - 1) * DTLZ7_U_STAR
        nadir = np.full(m, DTLZ7_T_STAR)
        nadir[m - 1] = 2.0 * m
        return ideal, nadir

    def _g_and_f(self, x):
        m = self.m
        pos, xm = self._split(x)
        g = 1.0 + 9.0 / self.k * np.sum(xm, axis=1)
        f = np.empty((x.shape[0], m))
        f[:, :m - 1] = pos
        ratio = pos / (1.0 + g)[:, None]
        h = m - np.sum(ratio * (1.0 + np.sin(3.0 * np.pi * pos)), axis=1)
        f[:, m - 1] = (1.0 + g) * h
        return g, f

    def sample_pf(self, count, engine):
        if DTLZ7._eff_grid is None:
            DTLZ7._eff_grid = _dtlz7_efficient_grid()
        grid = DTLZ7._eff_grid
        m = self.m
        pool_n = _pf_pool_size(count)
        pos = engine.choice(grid, size=(pool_n, m - 1))
        # anchors: per-objective extremes so any sample spans the front box
        anchors = np.zeros((m + 1, m - 1))
        for i in range(m - 1):
            anchors[i, i] = grid[-1]
        anchors[m - 1, :] = grid[-1]     # minimizes the last objective
        anchors[m, :] = 0.0              # maximizes the last objective
        pos = np.vstack([anchors, pos[:pool_n - anchors.shape[0]]])
        x = np.zeros((pos.shape[0], self.n))
        x[:, :m - 1] = pos
        f = self.evaluate_batch(x)
        return farthest_point_subsample(f, count)


class _Variant(Problem):
    """A base problem with its objectives transformed; same family."""

    def __init__(self, name: str, m: int, base_cls: type[Problem]):
        self._base = base_cls(name, m)
        self.family = self._base.family
        super().__init__(name, m)


class _Scaled(_Variant):
    """Objective i of the base problem multiplied by 10^(i-1)."""

    @cached_property
    def factors(self) -> np.ndarray:
        return 10.0 ** np.arange(self.m)

    def _front_box(self):
        return (self._base.true_ideal * self.factors,
                self._base.true_nadir * self.factors)

    def _objectives(self, x):
        return self._base._objectives(x) * self.factors

    def sample_pf(self, count, engine):
        return self._base.sample_pf(count, engine) * self.factors


class _Inverted(_Variant):
    """The base problem with each objective flipped inside its front box.

    f_i' = c (1 + g) - f_i, where c is the base front's nadir value (0.5
    for DTLZ1, 1 for DTLZ2/3/4), so the front box maps onto itself.
    """

    def _front_box(self):
        return self._base.true_ideal, self._base.true_nadir

    def _objectives(self, x):
        g, f = self._base._g_and_f(x)
        return (self.true_nadir[0] * (1.0 + g))[:, None] - f

    def sample_pf(self, count, engine):
        return self.true_nadir - self._base.sample_pf(count, engine)


_BASES = (DTLZ1, DTLZ2, DTLZ3, DTLZ4, DTLZ5, DTLZ6, DTLZ7)
# suite -> name -> constructor; only DTLZ1-4 have scaled and inverted ones
_BY_SUITE: dict[str, dict[str, Callable[[str, int], Problem]]] = {
    "dtlz": {f"dtlz{cls.family}": cls for cls in _BASES},
    "sdtlz": {f"sdtlz{cls.family}": partial(_Scaled, base_cls=cls)
              for cls in _BASES[:4]},
    "idtlz": {f"idtlz{cls.family}": partial(_Inverted, base_cls=cls)
              for cls in _BASES[:4]},
}
SUITES = {suite: tuple(names) for suite, names in _BY_SUITE.items()}
_REGISTRY = {k: v for names in _BY_SUITE.values() for k, v in names.items()}


def problem_names() -> list[str]:
    """All registered problem names in canonical order."""
    return list(_REGISTRY)


def get_problem(name: str, m: int) -> Problem:
    """Instantiate a registered problem.

    Parameters
    ----------
    name : str
        Case-insensitive registry name, e.g. ``"sdtlz2"``.
    m : int
        Number of objectives, at least 2.
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown problem {name!r}; known: "
                       f"{', '.join(_REGISTRY)}")
    return _REGISTRY[key](key, m)
