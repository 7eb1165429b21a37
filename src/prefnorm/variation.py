"""Variation operators: SBX, polynomial mutation and DE/rand/1.

All operators work on [lower, upper] box bounds and take every random number
from the engine passed in, or from blocks that a ``*_draws`` function drew
from it ahead of time, so runs replay exactly.  The GA operators vary R
independent runs at once: blocks carry a leading run axis, run r draws only
from ``engines[r]``, in its own order, and the arithmetic is elementwise, so
each run's children are what they would be on their own.  DE serves one run.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_EPS_SAME = 1e-14


def run_draws(engines: Sequence[np.random.Generator],
              shape: tuple[int, ...]) -> np.ndarray:
    """``engine.random(shape)`` of each engine, stacked on a leading axis."""
    out = np.empty((len(engines), *shape))
    for engine, block in zip(engines, out):
        engine.random(out=block)
    return out


def sbx_batch(pa: np.ndarray, pb: np.ndarray, lower: np.ndarray,
              upper: np.ndarray, engines: Sequence[np.random.Generator],
              eta: float = 30.0,
              crossover_prob: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover over (R, P, n) parent pair blocks.

    Per pair, the whole crossover fires with probability ``crossover_prob``;
    inside a firing pair each variable is crossed with probability 0.5 using
    a spread factor drawn from the SBX density with index ``eta``, and the
    two child values swap with probability 0.5.  Children are clipped to the
    bounds.  Identical parent coordinates pass through unchanged.  Run r
    draws its pair, variable, spread and swap blocks in one call; a float64
    draw takes one 64-bit word, so this equals four calls in turn.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    n_runs, n_pairs, n_var = pa.shape
    draws = run_draws(engines, (n_pairs * (1 + 3 * n_var),))
    pair_on = draws[:, :n_pairs] <= crossover_prob
    var_on, u, swap = draws[:, n_pairs:].reshape(
        n_runs, 3, n_pairs, n_var).swapaxes(0, 1)
    var_on, swap = var_on < 0.5, swap < 0.5
    active = pair_on[..., None] & var_on & (np.abs(pa - pb) > _EPS_SAME)

    beta = np.where(u <= 0.5, 2.0 * u,
                    1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
    up, down = 1.0 + beta, 1.0 - beta
    c1 = 0.5 * (up * pa + down * pb)
    c2 = 0.5 * (down * pa + up * pb)
    ca = np.where(active, np.where(swap, c2, c1), pa)
    cb = np.where(active, np.where(swap, c1, c2), pb)
    np.clip(ca, lower, upper, out=ca)
    np.clip(cb, lower, upper, out=cb)
    return ca, cb


def _pm_step(x: np.ndarray, u: np.ndarray, lower: np.ndarray,
             upper: np.ndarray, eta: float) -> np.ndarray:
    """Bounded polynomial-mutation values of genes ``x`` under draws ``u``."""
    span = upper - lower
    d1 = (x - lower) / span
    d2 = (upper - x) / span
    mut_pow = 1.0 / (eta + 1.0)
    val_lo = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)
    val_hi = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)
    delta = np.where(u < 0.5, val_lo ** mut_pow - 1.0,
                     1.0 - val_hi ** mut_pow)
    return x + delta * span


def polynomial_mutation(x: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                        do: np.ndarray, u: np.ndarray,
                        eta: float = 20.0) -> np.ndarray:
    """Bounded polynomial mutation of the genes ``do`` marks.

    ``x`` is an (N, n) array or one n-vector, and the gene mask ``do`` and
    the step draws ``u`` have its shape.  The bounded
    formulation shrinks the step near a bound, so a gene sitting on a bound
    can only move inward.  Only the mutating genes are computed; every gene
    is clamped to the box afterwards.
    """
    out = x.copy()
    genes = do.nonzero()
    if genes[0].size:
        cols = genes[-1]
        out[genes] = _pm_step(x[genes], u[genes], lower[cols], upper[cols],
                              eta)
    return out.clip(lower, upper, out=out)


def polynomial_mutation_batch(x: np.ndarray, lower: np.ndarray,
                              upper: np.ndarray,
                              engines: Sequence[np.random.Generator],
                              eta: float = 20.0,
                              mutation_prob: float | None = None
                              ) -> np.ndarray:
    """Polynomial mutation over an (R, N, n) block.

    A gene mutates with probability ``mutation_prob`` (default 1/n).  Run r
    draws its masks and steps from ``engines[r]`` in one call, the masks
    from the first half of the block and the steps from the second.
    """
    x = np.asarray(x, dtype=float)
    n_var = x.shape[-1]
    rate = 1.0 / n_var if mutation_prob is None else mutation_prob
    draws = run_draws(engines, (2, *x.shape[1:]))
    do, u = (draws[:, 0] < rate).reshape(-1, n_var), draws[:, 1]
    return polynomial_mutation(x.reshape(-1, n_var), lower, upper, do,
                               u.reshape(-1, n_var), eta).reshape(x.shape)


def de_rand_1_draws(own: np.ndarray, n_var: int, crossover_rate: float,
                    engine: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Donor slots and crossover masks of one DE/rand/1 trial per row.

    Row i of ``own`` marks the slots of neighbourhood i that hold its own
    target.  Every other slot gets a uniform key (the target's get +inf),
    and the three lowest keys in ascending order, ties by slot, name the
    donor slots: each ordered triple of distinct candidates is equally
    likely.  Each crossover mask takes a gene with probability
    ``crossover_rate`` plus one forced gene.  Three engine calls, whatever
    the number of rows.  Returns (N, 3) donor slots and (N, n_var) masks.
    """
    n_rows, t_size = own.shape
    if n_rows and t_size - own.sum(axis=1).max() < 3:
        raise ValueError("need at least 3 distinct neighbours besides the "
                         "target for DE/rand/1")
    keys = engine.random(own.shape)
    keys[own] = np.inf
    slots = keys.argsort(axis=1, kind="stable")[:, :3]
    cross = engine.random((n_rows, n_var)) < crossover_rate
    cross[np.arange(n_rows), engine.integers(n_var, size=n_rows)] = True
    return slots, cross


def de_rand_1(target_index: int | np.ndarray, xs: np.ndarray,
              donors: Sequence, cross: np.ndarray,
              f_scale: float = 0.5) -> np.ndarray:
    """DE/rand/1 mutant with binomial crossover against the target.

    ``donors`` holds r1, r2, r3 and ``cross`` the genes taken from the
    mutant (see :func:`de_rand_1_draws`).  For one trial they are three
    population indices and an n-mask; for a block of N trials,
    ``target_index`` holds N indices, ``donors`` three index arrays of
    length N and ``cross`` an (N, n) mask.  The trial is clamped to the box
    by the caller.
    """
    r1, r2, r3 = donors
    mutant = xs[r1] + f_scale * (xs[r2] - xs[r3])
    return np.where(cross, mutant, xs[target_index])
