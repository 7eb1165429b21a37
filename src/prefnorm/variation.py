"""Variation operators: SBX, polynomial mutation, DE/rand/1, bound repair.

All operators work on [lower, upper] box bounds and draw every random number
from the engine passed in, so runs replay exactly.  Batch variants are
vectorized across a whole offspring population.
"""
from __future__ import annotations

import numpy as np

_EPS_SAME = 1e-14


def repair_clamp(x: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray) -> np.ndarray:
    """Clamp each violated coordinate to the bound it crossed."""
    return np.clip(x, lower, upper)


def sbx_batch(pa: np.ndarray, pb: np.ndarray, lower: np.ndarray,
              upper: np.ndarray, engine: np.random.Generator,
              eta: float = 30.0,
              crossover_prob: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover over (P, n) parent pair arrays.

    Per pair, the whole crossover fires with probability ``crossover_prob``;
    inside a firing pair each variable is crossed with probability 0.5 using
    a spread factor drawn from the SBX density with index ``eta``, and the
    two child values swap with probability 0.5.  Children are clipped to the
    bounds.  Identical parent coordinates pass through unchanged.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    n_pairs, n_var = pa.shape
    ca = pa.copy()
    cb = pb.copy()
    pair_on = engine.random(n_pairs) <= crossover_prob
    var_on = engine.random((n_pairs, n_var)) < 0.5
    u = engine.random((n_pairs, n_var))
    swap = engine.random((n_pairs, n_var)) < 0.5
    active = pair_on[:, None] & var_on & (np.abs(pa - pb) > _EPS_SAME)

    beta = np.where(u <= 0.5,
                    (2.0 * u) ** (1.0 / (eta + 1.0)),
                    (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)))
    c1 = 0.5 * ((1.0 + beta) * pa + (1.0 - beta) * pb)
    c2 = 0.5 * ((1.0 - beta) * pa + (1.0 + beta) * pb)
    c1s = np.where(swap, c2, c1)
    c2s = np.where(swap, c1, c2)
    ca[active] = c1s[active]
    cb[active] = c2s[active]
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


def polynomial_mutation_batch(x: np.ndarray, lower: np.ndarray,
                              upper: np.ndarray,
                              engine: np.random.Generator,
                              eta: float = 20.0,
                              mutation_prob: float | None = None
                              ) -> np.ndarray:
    """Bounded polynomial mutation over an (N, n) array or one n-vector.

    Each gene mutates with probability ``mutation_prob`` (default 1/n).  The
    bounded formulation shrinks the step near a bound, so a gene sitting on a
    bound can only move inward.  Only the mutating genes are computed; every
    gene is clamped to the box afterwards.
    """
    x = np.asarray(x, dtype=float)
    if mutation_prob is None:
        mutation_prob = 1.0 / x.shape[-1]
    out = x.copy()
    do = engine.random(x.shape) < mutation_prob
    u = engine.random(x.shape)
    genes = do.nonzero()
    if genes[0].size:
        cols = genes[-1]
        out[genes] = _pm_step(x[genes], u[genes], lower[cols], upper[cols],
                              eta)
    return out.clip(lower, upper, out=out)


def polynomial_mutation(x: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                        engine: np.random.Generator, eta: float = 20.0,
                        mutation_prob: float | None = None) -> np.ndarray:
    """Bounded polynomial mutation of one vector (same draws as one row)."""
    return polynomial_mutation_batch(x, lower, upper, engine, eta,
                                     mutation_prob)


def de_rand_1(target_index: int, xs: np.ndarray, neighborhood: np.ndarray,
              engine: np.random.Generator, f_scale: float = 0.5,
              crossover_rate: float = 1.0) -> np.ndarray:
    """DE/rand/1 mutant with binomial crossover against the target.

    Parents r1 != r2 != r3 are drawn from ``neighborhood`` excluding the
    target index; the trial is clamped to the box by the caller.

    Parameters
    ----------
    xs : np.ndarray
        (N, n) decision matrix of the population.
    neighborhood : np.ndarray
        Candidate parent indices (the target's neighbourhood).
    """
    cand = neighborhood[neighborhood != target_index]
    if cand.size < 3:
        raise ValueError("need at least 3 distinct neighbours besides the "
                         "target for DE/rand/1")
    r1, r2, r3 = cand[engine.choice(cand.size, 3, replace=False)]
    mutant = xs[r1] + f_scale * (xs[r2] - xs[r3])
    n_var = xs.shape[1]
    cross = engine.random(n_var) < crossover_rate
    cross[engine.integers(n_var)] = True
    return np.where(cross, mutant, xs[target_index])
