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

import itertools
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
        (R, a, m) objectives of each run's current archive, a <= m (a = 0
        initially).
    new_objs : np.ndarray
        (R, N, m) objectives of each run's newly evaluated solutions.

    Returns
    -------
    np.ndarray
        (R, m, m) objectives of the refreshed archives, a run's row i
        maximizing objective i over the non-dominated subset of its union.
    """
    pool = np.concatenate([arch_objs, np.asarray(new_objs, dtype=float)],
                          axis=-2)
    if pool.shape[1] == 0:
        raise ValueError("archive update needs at least one solution")
    keep = nondominated_mask(pool)
    # dominated rows sink below every survivor, so a run's slot i is its
    # first surviving maximizer; a max of -inf may land on a dominated row,
    # and then every survivor ties, so the first survivor takes the slot
    picks = np.where(keep[..., None], pool, -np.inf).argmax(axis=1)
    rows = np.arange(len(pool))[:, None]
    picks = np.where(keep[rows, picks], picks, keep.argmax(axis=1)[:, None])
    return pool[rows, picks]


@dataclass
class NormalizationState:
    """Mutable state of the normalization strategies of a block of runs.

    Every array has a leading run axis, row r being run r's.  Each run
    follows its own kind; the runs of one kind form one contiguous slice.

    Attributes
    ----------
    kinds : tuple[str, ...]
        One of ``pp``, ``bp``, ``ba``, ``no`` per run.
    m : int
        Number of objectives.
    runs : int
        Number of runs in the block, ``len(kinds)``.
    slices : dict[str, slice]
        Each kind's rows, in block order.
    z_lb, z_ub : np.ndarray
        (R, m) current estimated lower/upper objective bounds.
    best_min : np.ndarray
        (R, m) running componentwise minimum (bp/ba rows).
    arch_objs : np.ndarray
        (B, a, m) objectives of the bounded archives of the B ``ba`` runs,
        in block order, a <= m.
    """

    kinds: tuple[str, ...]
    m: int
    runs: int = field(init=False)
    slices: dict[str, slice] = field(init=False)
    z_lb: np.ndarray = field(init=False)
    z_ub: np.ndarray = field(init=False)
    best_min: np.ndarray = field(init=False)
    arch_objs: np.ndarray = field(init=False)

    def __post_init__(self):
        if isinstance(self.kinds, str):
            raise TypeError("kinds: expected one kind per run, got the str "
                            f"{self.kinds!r}")
        self.kinds = tuple(self.kinds)
        self.runs = len(self.kinds)
        self.slices = {}
        start = 0
        for kind, group in itertools.groupby(self.kinds):
            if kind not in KINDS:
                raise ValueError(f"unknown normalization kind {kind!r}; "
                                 f"known: {', '.join(KINDS)}")
            if kind in self.slices:
                raise ValueError(f"the runs of kind {kind!r} must be "
                                 "contiguous")
            stop = start + len(list(group))
            self.slices[kind] = slice(start, stop)
            start = stop
        self.z_lb = np.zeros((self.runs, self.m))
        self.z_ub = np.ones((self.runs, self.m))
        self.best_min = np.full((self.runs, self.m), np.inf)
        self.arch_objs = np.empty((self.kinds.count("ba"), 0, self.m))


def update_state(state: NormalizationState, pop_objs: np.ndarray,
                 off_objs: np.ndarray | None = None) -> NormalizationState:
    """Refresh the estimated bounds of every run after a generation.

    ``pop_objs`` holds each run's (N, m) parent population, ``off_objs``
    its offspring batch evaluated this generation (None at
    initialization), both with the state's leading run axis.  Each kind's
    rule updates its own slice of runs.  The archive (ba) consumes only the
    new batch: the offspring when present, otherwise the initial
    population.
    """
    pop_objs = np.asarray(pop_objs, dtype=float)
    if off_objs is None:
        union = pop_objs
        batch = pop_objs
    else:
        off_objs = np.asarray(off_objs, dtype=float)
        union = np.concatenate([pop_objs, off_objs], axis=-2)
        batch = off_objs
    for kind, rows in state.slices.items():
        if kind == "no":
            continue
        low = union[rows].min(axis=-2)
        if kind != "pp":  # bp and ba keep the best-so-far minimum
            low = state.best_min[rows] = np.minimum(state.best_min[rows], low)
        state.z_lb[rows] = low
        if kind == "ba":
            state.arch_objs = update_bounded_archive_objs(state.arch_objs,
                                                          batch[rows])
            state.z_ub[rows] = state.arch_objs.max(axis=-2)
        else:
            state.z_ub[rows] = union[rows].max(axis=-2)
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
