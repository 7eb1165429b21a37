"""Preference-aware quality indicators and normalization-error measures.

All indicator geometry lives in the space normalized by the problem's exact
ideal and nadir points, so differently scaled problems compare fairly.  The
region of interest is the radius-``r`` ball (intersected with the front)
around the front point closest to the reference point.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .normalization import TrueScaler
from .ranking import _sq_dists

logger = logging.getLogger(__name__)

DEFAULT_ROI_RADIUS = 0.1


@dataclass
class RoiReferenceSet:
    """Front sample restricted to the preferred region, pre-normalized.

    Attributes
    ----------
    points : np.ndarray
        (n_ref, m) normalized front points within the region of interest.
    center : np.ndarray
        Normalized front point closest to the reference point.
    scaler : TrueScaler
    """

    points: np.ndarray
    center: np.ndarray
    scaler: TrueScaler


def build_roi_reference_set(pf_sample: np.ndarray, z: np.ndarray,
                            radius: float,
                            scaler: TrueScaler) -> RoiReferenceSet:
    """Select the front points strictly within ``radius`` of the pivot.

    The pivot is the front sample member closest (Euclidean, normalized
    space) to the reference point ``z``; distance ties resolve to the lowest
    index.  The pivot itself is always included.
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    pf_sample = np.asarray(pf_sample, dtype=float)
    if pf_sample.ndim != 2 or pf_sample.shape[0] == 0:
        raise ValueError("need a non-empty (N, m) front sample")
    norm_pf = scaler.normalize(pf_sample)
    z_norm = scaler.normalize(np.asarray(z, dtype=float))
    center_idx = int(np.argmin(np.linalg.norm(norm_pf - z_norm, axis=1)))
    center = norm_pf[center_idx]
    keep = np.linalg.norm(norm_pf - center, axis=1) < radius
    points = norm_pf[keep]
    logger.debug("ROI reference set: %d of %d front points within r=%g",
                 points.shape[0], pf_sample.shape[0], radius)
    return RoiReferenceSet(points=points, center=center, scaler=scaler)


def igd_plus_c(objs: np.ndarray, roi: RoiReferenceSet) -> float:
    """Mean over the ROI reference points of the closest IGD+ distance.

    The per-pair distance only counts coordinates where the solution is
    worse than the reference point, so weakly dominating solution sets can
    never score worse.  Solutions are normalized with the reference set's
    scaler.
    """
    objs = np.asarray(objs, dtype=float)
    if objs.ndim != 2 or objs.shape[0] == 0:
        raise ValueError("need a non-empty (N, m) objective array")
    if objs.shape[1] != roi.points.shape[1]:
        raise ValueError(f"objective array has {objs.shape[1]} columns, "
                         f"the ROI has m = {roi.points.shape[1]}")
    sols = roi.scaler.normalize(objs)
    # sqrt is monotone and correctly rounded, so it commutes with the min
    d2 = _sq_dists(sols, roi.points, plus=True).min(axis=0)
    return float(np.mean(np.sqrt(d2)))


def e_ideal(z_lb: np.ndarray, scaler: TrueScaler) -> float:
    """Squared normalized gap between an ideal estimate and the true ideal."""
    gap = scaler.normalize(np.asarray(z_lb, dtype=float))
    return float(np.sum(gap * gap))


def e_nadir(z_ub: np.ndarray, scaler: TrueScaler) -> float:
    """Squared normalized gap between a nadir estimate and the true nadir."""
    gap = scaler.normalize(np.asarray(z_ub, dtype=float)) - 1.0
    return float(np.sum(gap * gap))


def ore(z_lb: np.ndarray, z_ub: np.ndarray, scaler: TrueScaler) -> float:
    """Objective range error: spread of the normalized estimated ranges.

    Population standard deviation (divide by m) of the per-objective ratio
    of estimated range to true range.  Zero when every objective's estimate
    covers the same fraction of its true range; grows when the estimate is
    lopsided across objectives.
    """
    span = np.asarray(scaler.nadir, dtype=float) - scaler.ideal
    ratios = (np.asarray(z_ub, dtype=float) - z_lb) / span
    return float(np.std(ratios))
