"""Ideal/nadir estimation and objective normalization strategies.

Four strategies share one state container:

``pp``
    both bounds from the current parent+offspring union,
``bp``
    best-so-far minimum, union maximum,
``ba``
    best-so-far minimum, maximum over a bounded non-dominated archive,
``no``
    identity transform (lower bound 0, upper bound 1 in every objective).

The bounded archive keeps exactly one slot per objective: slot i holds a
maximizer of objective i over the non-dominated subset of the previous
archive plus the new batch (lowest index on ties, duplicates across slots
allowed).  On mutually non-dominated streams its maximum equals the
unbounded non-dominated archive's; otherwise, from three objectives on, it
approximates it, since a vector extreme in no objective leaves the archive.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ranking import nondominated_mask

EPS_DENOM = 1e-12

KINDS = ("pp", "bp", "ba", "no")


def update_bounded_archive_objs(arch_objs: np.ndarray,
                                new_objs: np.ndarray) -> np.ndarray:
    """One bounded-archive step on raw objective arrays.

    Parameters
    ----------
    arch_objs : np.ndarray
        (a, m) objectives of the current archive, a <= m (a = 0 initially).
    new_objs : np.ndarray
        (N, m) objectives of the newly evaluated solutions.

    Returns
    -------
    np.ndarray
        (m, m) objectives of the refreshed archive, row i maximizing
        objective i over the non-dominated subset of the union.
    """
    new_objs = np.asarray(new_objs, dtype=float)
    if arch_objs.size:
        pool = np.vstack([arch_objs, new_objs])
    else:
        pool = new_objs
    if pool.shape[0] == 0:
        raise ValueError("archive update needs at least one solution")
    survivors = pool[nondominated_mask(pool)]
    picks = np.argmax(survivors, axis=0)
    return survivors[picks]


@dataclass
class NormalizationState:
    """Mutable per-run state of one normalization strategy.

    Attributes
    ----------
    kind : str
        One of ``pp``, ``bp``, ``ba``, ``no``.
    m : int
        Number of objectives.
    z_lb, z_ub : np.ndarray
        Current estimated lower/upper objective bounds.
    best_min : np.ndarray
        Running componentwise minimum (bp/ba).
    arch_objs : np.ndarray
        (a, m) objectives of the bounded archive (ba), a <= m.
    """

    kind: str
    m: int
    z_lb: np.ndarray = field(init=False)
    z_ub: np.ndarray = field(init=False)
    best_min: np.ndarray = field(init=False)
    arch_objs: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown normalization kind {self.kind!r}; "
                             f"known: {', '.join(KINDS)}")
        self.z_lb = np.zeros(self.m)
        self.z_ub = np.ones(self.m)
        self.best_min = np.full(self.m, np.inf)
        self.arch_objs = np.empty((0, self.m))


def update_state(state: NormalizationState, pop_objs: np.ndarray,
                 off_objs: np.ndarray | None = None) -> NormalizationState:
    """Refresh the estimated bounds after a generation.

    ``pop_objs`` is the parent population, ``off_objs`` the offspring batch
    evaluated this generation (None at initialization).  The archive (ba)
    consumes only the new batch: the offspring when present, otherwise the
    initial population.
    """
    if state.kind == "no":
        return state
    pop_objs = np.asarray(pop_objs, dtype=float)
    if off_objs is None or len(off_objs) == 0:
        union = pop_objs
        batch = pop_objs
    else:
        off_objs = np.asarray(off_objs, dtype=float)
        union = np.vstack([pop_objs, off_objs])
        batch = off_objs
    if state.kind == "pp":
        state.z_lb = union.min(axis=0)
        state.z_ub = union.max(axis=0)
        return state
    state.best_min = np.minimum(state.best_min, union.min(axis=0))
    state.z_lb = state.best_min.copy()
    if state.kind == "bp":
        state.z_ub = union.max(axis=0)
    else:  # ba
        state.arch_objs = update_bounded_archive_objs(state.arch_objs, batch)
        state.z_ub = state.arch_objs.max(axis=0)
    return state


def normalize_value(f: np.ndarray, z_lb: np.ndarray,
                    z_ub: np.ndarray) -> np.ndarray:
    """(f - z_lb) / (z_ub - z_lb) with the denominator floored at 1e-12."""
    span = np.maximum(np.asarray(z_ub, dtype=float) - z_lb, EPS_DENOM)
    return (np.asarray(f, dtype=float) - z_lb) / span


@dataclass
class TrueScaler:
    """Normalizer built from a problem's exact ideal and nadir points."""

    ideal: np.ndarray
    nadir: np.ndarray

    def normalize(self, f: np.ndarray) -> np.ndarray:
        return normalize_value(f, self.ideal, self.nadir)
