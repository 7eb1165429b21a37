"""Bundled default reference points per problem and objective count.

Two settings ship with the package.  The *balanced* setting aims at the
middle of the front; values for m in {3, 5, 8, 10} are bundled verbatim,
while m in {2, 4, 6} are reconstructed as 1.2 times the front's
equal-coordinate center point (linear family: 0.6/m per coordinate;
spherical families: 1.2/sqrt(m); degenerate-curve family: 1.2 times the
curve point at theta = pi/4).  The disconnected-front problem has no
equal-coordinate center, so its reconstructed points are 1.2 times the
centroid of a large front sample (scripts/derive_pf_constants.py).

The *extreme* setting pushes toward one edge of the front and is bundled
only for the listed m; there is no faithful reconstruction rule for it, so
other m require an explicit reference point in the config.

Scaled problems multiply coordinate i by 10^(i-1); inverted problems reuse
the base values unchanged.
"""
from __future__ import annotations

from math import sqrt

import numpy as np

SETTINGS = ("balanced", "extreme")

# family groups share reference points: 1 = linear, 2 = spherical (DTLZ2-4),
# 5 = degenerate curve (DTLZ5/6), 7 = disconnected
_GROUP_BY_FAMILY = {1: 1, 2: 2, 3: 2, 4: 2, 5: 5, 6: 5, 7: 7}

_BALANCED = {
    (1, 3): (0.24, 0.18, 0.18),
    (2, 3): (0.8, 0.6, 0.6),
    (5, 3): (0.65, 0.65, 0.74),
    (7, 3): (0.75, 0.15, 6.0),
    (1, 5): (0.134, 0.12, 0.16, 0.12, 0.134),
    (2, 5): (0.556, 0.5, 0.666, 0.5, 0.556),
    (5, 5): (0.4, 0.4, 0.56, 0.8, 0.7),
    (1, 8): (0.08, 0.08, 0.074, 0.08, 0.086, 0.074, 0.068, 0.068),
    (2, 8): (0.45, 0.45, 0.415, 0.45, 0.486, 0.415, 0.381, 0.381),
    (5, 8): (0.12, 0.12, 0.17, 0.24, 0.34, 0.48, 0.68, 0.42),
    (1, 10): (0.06, 0.065, 0.06, 0.0436, 0.0545, 0.049, 0.0545, 0.049,
              0.06, 0.049),
    (2, 10): (0.4, 0.437, 0.4, 0.29, 0.364, 0.328, 0.364, 0.328, 0.4,
              0.328),
    (5, 10): (0.0, 0.0, 0.0, 0.0035, 0.01, 0.031, 0.0963, 0.29, 0.88, 0.7),
}

_EXTREME = {
    (1, 3): (0.15, 0.15, 0.45),
    (2, 3): (0.4, 1.2, 0.4),
    (5, 3): (0.4, 0.4, 1.2),
    (1, 5): (0.03, 0.18, 0.33, 0.03, 0.03),
    (2, 5): (0.15, 1.2, 0.187, 0.168, 0.15),
    (5, 5): (0.18, 0.18, 0.255, 0.36, 1.05),
    (1, 8): (0.3, 0.042, 0.048, 0.042, 0.042, 0.036, 0.048, 0.042),
    (2, 8): (0.15, 0.128, 0.173, 0.15, 1.071, 0.15, 0.173, 0.15),
    (5, 8): (0.07, 0.07, 0.1, 0.1415, 0.2, 0.283, 0.4, 1.2),
    (1, 10): (0.03, 0.036, 0.03, 0.036, 0.036, 0.3, 0.03, 0.036, 0.03,
              0.036),
    (2, 10): (0.14, 0.14, 1.164, 0.117, 0.14, 0.117, 0.14, 0.117, 0.14,
              0.117),
    (5, 10): (0.0, 0.0, 0.0, 0.0, 0.0144, 0.04, 0.12, 0.37, 1.13, 0.12),
}

# reconstructed disconnected-front points (derivation script, fixed seed)
_DISCONNECTED_RECON = {
    2: (0.5055, 3.9724),
    4: (0.5056, 0.5073, 0.5057, 7.1188),
    5: (0.5071, 0.5026, 0.5038, 0.5071, 8.7002),
    6: (0.5029, 0.5107, 0.5039, 0.4995, 0.5054, 10.2809),
}


def _reconstruct_balanced(group: int, m: int) -> np.ndarray:
    if group == 1:
        return np.full(m, 0.6 / m)
    if group == 2:
        return np.full(m, 1.2 / sqrt(m))
    if group == 5:
        z = np.empty(m)
        z[0] = 2.0 ** (-(m - 1) / 2.0)
        for j in range(2, m):
            z[j - 1] = 2.0 ** (-(m - j + 1) / 2.0)
        z[m - 1] = 2.0 ** -0.5
        return 1.2 * z
    if group == 7 and m in _DISCONNECTED_RECON:
        return np.array(_DISCONNECTED_RECON[m])
    raise KeyError(
        f"no bundled balanced reference point for family group {group}, "
        f"m={m}; set one explicitly in the config")


def default_reference_point(problem_name: str, m: int,
                            setting: str = "balanced") -> np.ndarray:
    """Bundled reference point for a problem/objective-count pair.

    Parameters
    ----------
    problem_name : str
        Registry name, e.g. ``"sdtlz2"``; scaled variants get coordinate i
        multiplied by 10^(i-1), inverted variants reuse the base values.
    m : int
    setting : str
        ``"balanced"`` (any m >= 2) or ``"extreme"`` (listed m only).
    """
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; "
                         f"known: {', '.join(SETTINGS)}")
    key = problem_name.lower()
    scaled = key.startswith("s")
    base = key[1:] if key[0] in "si" else key
    try:
        family = int(base.replace("dtlz", ""))
    except ValueError:
        raise KeyError(f"no bundled reference points for {problem_name!r}")
    group = _GROUP_BY_FAMILY[family]
    table = _BALANCED if setting == "balanced" else _EXTREME
    if (group, m) in table:
        z = np.array(table[(group, m)], dtype=float)
    elif setting == "balanced":
        z = _reconstruct_balanced(group, m)
    else:
        raise KeyError(
            f"no bundled extreme reference point for {problem_name} m={m}; "
            "set one explicitly in the config")
    if scaled:
        z = z * 10.0 ** np.arange(m)
    return z
