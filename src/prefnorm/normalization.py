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
    """One bounded-archive step of every run of a block.

    Parameters
    ----------
    arch_objs : np.ndarray
        (..., a, m) objectives of each run's current archive, a <= m (a = 0
        initially).
    new_objs : np.ndarray
        (..., N, m) objectives of each run's newly evaluated solutions.

    Returns
    -------
    np.ndarray
        (..., m, m) objectives of the refreshed archives, a run's row i
        maximizing objective i over the non-dominated subset of its union.
    """
    pool = np.concatenate([arch_objs, np.asarray(new_objs, dtype=float)],
                          axis=-2)
    *lead, size, m = pool.shape
    if size == 0:
        raise ValueError("archive update needs at least one solution")
    pool = pool.reshape(-1, size, m)
    keep = nondominated_mask(pool)
    # dominated rows sink below every survivor, so a run's slot i is its
    # first surviving maximizer; a max of -inf may land on a dominated row,
    # and then every survivor ties, so the first survivor takes the slot
    picks = np.where(keep[..., None], pool, -np.inf).argmax(axis=1)
    rows = np.arange(len(pool))[:, None]
    picks = np.where(keep[rows, picks], picks, keep.argmax(axis=1)[:, None])
    return pool[rows, picks].reshape(*lead, m, m)


@dataclass
class NormalizationState:
    """Mutable state of one normalization strategy for a block of runs.

    With ``runs`` = R every array has a leading run axis, row r being run
    r's; ``None`` leaves it out, for one run on its own.

    Attributes
    ----------
    kind : str
        One of ``pp``, ``bp``, ``ba``, ``no``.
    m : int
        Number of objectives.
    runs : int or None
        Number of runs in the block.
    z_lb, z_ub : np.ndarray
        (R, m) current estimated lower/upper objective bounds.
    best_min : np.ndarray
        (R, m) running componentwise minimum (bp/ba).
    arch_objs : np.ndarray
        (R, a, m) objectives of the bounded archives (ba), a <= m.
    """

    kind: str
    m: int
    runs: int | None = None
    z_lb: np.ndarray = field(init=False)
    z_ub: np.ndarray = field(init=False)
    best_min: np.ndarray = field(init=False)
    arch_objs: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown normalization kind {self.kind!r}; "
                             f"known: {', '.join(KINDS)}")
        lead = () if self.runs is None else (self.runs,)
        self.z_lb = np.zeros((*lead, self.m))
        self.z_ub = np.ones((*lead, self.m))
        self.best_min = np.full((*lead, self.m), np.inf)
        self.arch_objs = np.empty((*lead, 0, self.m))


def update_state(state: NormalizationState, pop_objs: np.ndarray,
                 off_objs: np.ndarray | None = None) -> NormalizationState:
    """Refresh the estimated bounds of every run after a generation.

    ``pop_objs`` holds each run's (N, m) parent population, ``off_objs``
    its offspring batch evaluated this generation (None at
    initialization), both with the state's leading run axis.  The archive
    (ba) consumes only the new batch: the offspring when present, otherwise
    the initial population.
    """
    if state.kind == "no":
        return state
    pop_objs = np.asarray(pop_objs, dtype=float)
    if off_objs is None or np.shape(off_objs)[-2] == 0:
        union = pop_objs
        batch = pop_objs
    else:
        off_objs = np.asarray(off_objs, dtype=float)
        union = np.concatenate([pop_objs, off_objs], axis=-2)
        batch = off_objs
    if state.kind == "pp":
        state.z_lb = union.min(axis=-2)
        state.z_ub = union.max(axis=-2)
        return state
    state.best_min = np.minimum(state.best_min, union.min(axis=-2))
    state.z_lb = state.best_min.copy()
    if state.kind == "bp":
        state.z_ub = union.max(axis=-2)
    else:  # ba
        state.arch_objs = update_bounded_archive_objs(state.arch_objs, batch)
        state.z_ub = state.arch_objs.max(axis=-2)
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
