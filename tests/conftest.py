"""Shared brute-force oracles and helpers for the test suite.

The oracles deliberately use plain double loops and per-level recomputation
so they share no code path with the vectorized implementations they check.
The reference copies of the problem objective shapes, of the Das-Dennis
lattice, of the 3-d distance reductions, of the full level peel and of
one-run SBX are instead earlier implementations, the MOEA/D-NUMS reference
loop reads the package's blocks of random numbers with plain loops and
sorts, and the NSGA-II reference loop runs one engine at a time; tests pin
the current code to them byte for byte.
"""
from __future__ import annotations

import logging

import numpy as np
import pytest

from prefnorm.algorithms import epsilon_clear
from prefnorm.core import make_engine
from prefnorm.normalization import (NormalizationState, normalize_value,
                                    update_state)
from prefnorm.ranking import domination_matrix, r_domination_matrix
from prefnorm.weights import neighborhoods, nums_shift, uniform_simplex_set


def oracle_dominates(a, b) -> bool:
    """Plain-loop Pareto dominance: a <= b everywhere, < somewhere."""
    better_somewhere = False
    for ai, bi in zip(a, b):
        if ai > bi:
            return False
        if ai < bi:
            better_somewhere = True
    return better_somewhere


def oracle_nondominated_mask(objs) -> np.ndarray:
    """Quadratic scan marking rows no other row dominates."""
    objs = np.asarray(objs, dtype=float)
    n = len(objs)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and oracle_dominates(objs[j], objs[i]):
                keep[i] = False
                break
    return keep


def oracle_sort(objs) -> list[np.ndarray]:
    """Front levels by repeatedly peeling the oracle nondominated set."""
    objs = np.asarray(objs, dtype=float)
    remaining = np.arange(len(objs))
    fronts = []
    while remaining.size:
        mask = oracle_nondominated_mask(objs[remaining])
        fronts.append(remaining[mask])
        remaining = remaining[~mask]
    return fronts


def oracle_r_dominance(fa, fb, d_a, d_b, d_min, d_max, delta) -> int:
    """Scalar r-dominance of one pair: 1 if a wins, -1 if b wins, else 0.

    ``d_a``/``d_b`` are the pair's reference-point distances and
    ``d_min``/``d_max`` the distance extremes of the population.
    """
    if oracle_dominates(fa, fb):
        return 1
    if oracle_dominates(fb, fa):
        return -1
    rng = d_max - d_min
    if rng <= 0.0:
        return 0
    diff = (d_a - d_b) / rng
    if diff < -delta:
        return 1
    if diff > delta:
        return -1
    return 0


def oracle_igd_plus(reference, objs) -> float:
    """Double-loop IGD+ over an explicit reference set."""
    total = 0.0
    for ref in reference:
        best = None
        for sol in objs:
            dist = 0.0
            for s, r in zip(sol, ref):
                dist += max(s - r, 0.0) ** 2
            dist = dist ** 0.5
            if best is None or dist < best:
                best = dist
        total += best
    return total / len(reference)


def oracle_unbounded_nadir(objs) -> np.ndarray:
    """Componentwise max over the oracle nondominated subset."""
    objs = np.asarray(objs, dtype=float)
    keep = oracle_nondominated_mask(objs)
    return objs[keep].max(axis=0)


def oracle_distance_to_set(points, anchors) -> np.ndarray:
    """Each row's distance to its nearest anchor: one full pass per anchor."""
    dist = np.linalg.norm(points - anchors[0], axis=1)
    for row in anchors[1:]:
        np.minimum(dist, np.linalg.norm(points - row, axis=1), out=dist)
    return dist


def oracle_farthest_picks(points, dist, count) -> np.ndarray:
    """Greedy farthest-point picks recomputing every distance per pick.

    ``dist`` is updated in place, as by the pruned version it checks.
    """
    chosen = np.empty(count, dtype=int)
    for i in range(count):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1),
                   out=dist)
    return chosen


def oracle_das_dennis_lattice(m, divisions) -> np.ndarray:
    """Simplex lattice built by the stack walk it had before stars and bars."""
    if m == 1:
        return np.ones((1, 1))
    rows = []
    stack = [(0, [])]
    while stack:
        used, prefix = stack.pop()
        if len(prefix) == m - 1:
            rows.append(prefix + [divisions - used])
            continue
        # push in reverse so the natural lexicographic order pops first
        for v in range(divisions - used, -1, -1):
            stack.append((used + v, prefix + [v]))
    return np.array(rows, dtype=float) / float(divisions) if divisions else \
        np.full((1, m), 1.0 / m)


# Reference copies of the MOEA/D-NUMS trial path and the operators it calls.
# They take the same blocks of random numbers as the package (one block per
# generation, drawn in the same order) but read them with plain loops and
# sorts, re-score every incumbent on each trial and compute every mutation
# gene; the package must reproduce them byte for byte.

def oracle_de_donor_slots(keys, neighborhood, target_index):
    """Slots of the three lowest keys among the target's candidates."""
    cand = [s for s in range(len(neighborhood))
            if neighborhood[s] != target_index]
    if len(cand) < 3:
        raise ValueError("need at least 3 distinct neighbours besides the "
                         "target for DE/rand/1")
    return sorted(cand, key=lambda s: (keys[s], s))[:3]


def oracle_de_rand_1(target_index, xs, donors, cross, f_scale=0.5):
    """DE/rand/1 with boolean-mask crossover into a copy of the target."""
    r1, r2, r3 = donors
    mutant = xs[r1] + f_scale * (xs[r2] - xs[r3])
    trial = xs[target_index].copy()
    trial[cross] = mutant[cross]
    return trial


def oracle_polynomial_mutation(x, lower, upper, do, u, eta=20.0):
    """Bounded polynomial mutation computed on every gene, then masked."""
    x = np.asarray(x, dtype=float)
    span = upper - lower
    out = x.copy()
    d1 = (x - lower) / span
    d2 = (upper - x) / span
    mut_pow = 1.0 / (eta + 1.0)
    low_branch = u < 0.5
    val_lo = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)
    val_hi = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)
    delta = np.where(low_branch,
                     val_lo ** mut_pow - 1.0,
                     1.0 - val_hi ** mut_pow)
    out[do] = (x + delta * span)[do]
    np.clip(out, lower, upper, out=out)
    return out


def oracle_polynomial_mutation_batch(x, lower, upper, engine, eta=20.0,
                                     mutation_prob=None):
    """Polynomial mutation drawing its masks and steps in two calls."""
    x = np.asarray(x, dtype=float)
    if mutation_prob is None:
        mutation_prob = 1.0 / x.shape[1]
    do = engine.random(x.shape) < mutation_prob
    u = engine.random(x.shape)
    return oracle_polynomial_mutation(x, lower, upper, do, u, eta)


def oracle_sbx(pa, pb, lower, upper, engine, eta=30.0, crossover_prob=1.0):
    """SBX over (P, n) parent pairs, one run, drawing four blocks in turn."""
    n_pairs, n_var = pa.shape
    ca, cb = pa.copy(), pb.copy()
    pair_on = engine.random(n_pairs) <= crossover_prob
    var_on = engine.random((n_pairs, n_var)) < 0.5
    u = engine.random((n_pairs, n_var))
    swap = engine.random((n_pairs, n_var)) < 0.5
    active = pair_on[:, None] & var_on & (np.abs(pa - pb) > 1e-14)
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** (1.0 / (eta + 1.0)),
                    (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)))
    c1 = 0.5 * ((1.0 + beta) * pa + (1.0 - beta) * pb)
    c2 = 0.5 * ((1.0 - beta) * pa + (1.0 + beta) * pb)
    ca[active] = np.where(swap, c2, c1)[active]
    cb[active] = np.where(swap, c1, c2)[active]
    return np.clip(ca, lower, upper), np.clip(cb, lower, upper)


def oracle_run_generational(problem, kind, mu, budget, engine, params,
                            recorder, select):
    """One run of the NSGA-II loop on its own, with the oracle operators.

    ``select(union_objs, states, engines)`` is the runner's selection,
    handed this run as a block of one.
    """
    def select_one(uf, state, engine):
        return (a[0] for a in select(uf[None], [state], [engine]))

    span = problem.upper - problem.lower
    xs = problem.lower + engine.random((mu, problem.n)) * span
    fs = problem.evaluate_batch(xs)
    evals = mu
    state = NormalizationState(kind, problem.m)
    update_state(state, fs)
    keep, primary, secondary = select_one(fs, state, engine)
    back = np.argsort(keep)
    primary, secondary = primary[back], secondary[back]
    recorder(evals, fs, state)
    while evals + mu <= budget:
        winners = []
        for a, b in engine.integers(0, mu, size=(mu, 2)):
            a_wins = (primary[a], secondary[a]) <= (primary[b], secondary[b])
            winners.append(a if a_wins else b)
        ca, cb = oracle_sbx(xs[winners[0::2]], xs[winners[1::2]],
                            problem.lower, problem.upper, engine,
                            params.sbx_eta, params.crossover_prob)
        children = np.empty((mu, problem.n))
        children[0::2], children[1::2] = ca, cb
        child_x = oracle_polynomial_mutation_batch(
            children, problem.lower, problem.upper, engine, params.pm_eta,
            params.mutation_prob)
        child_f = problem.evaluate_batch(child_x)
        evals += mu
        update_state(state, fs, child_f)
        ux, uf = np.vstack([xs, child_x]), np.vstack([fs, child_f])
        keep, primary, secondary = select_one(uf, state, engine)
        xs, fs = ux[keep], uf[keep]
        recorder(evals, fs, state)
    return fs


def oracle_epsilon_clear(points, epsilon, engine):
    """Epsilon-clearing that rescans the survivors for every visited point."""
    n = points.shape[0]
    order = engine.permutation(n)
    kept = []
    reserve = []
    kept_pts = np.empty_like(points)
    for pos in order:
        if kept:
            d2 = np.sum((kept_pts[:len(kept)] - points[pos]) ** 2, axis=1)
            if np.min(d2) < epsilon * epsilon:
                reserve.append(pos)
                continue
        kept_pts[len(kept)] = points[pos]
        kept.append(pos)
    return np.asarray(kept, dtype=int), np.asarray(reserve, dtype=int)


def oracle_aasf(f, z, w, z_lb, z_ub, rho):
    fn = normalize_value(f, z_lb, z_ub)
    zn = normalize_value(z, z_lb, z_ub)
    diff = fn - zn
    return np.max(w * diff, axis=-1) + rho * np.sum(diff, axis=-1)


def oracle_moead_nums_replacement(trial_f, fs, weights, nb, z, state,
                                  max_replace, keys, rho=1e-6):
    """Replacement that re-scores the trial and every incumbent per call.

    Neighbours are visited in ascending ``keys``, ties by position.
    """
    scored = np.empty((2, nb.size, trial_f.size))
    scored[0] = trial_f
    scored[1] = fs[nb]
    trial_vals, incumbent = oracle_aasf(scored, z, weights[nb], state.z_lb,
                                        state.z_ub, rho)
    replaced = []
    for pos in sorted(range(nb.size), key=lambda p: (keys[p], p)):
        if len(replaced) >= max_replace:
            break
        if trial_vals[pos] < incumbent[pos]:
            replaced.append(nb[pos])
    return np.asarray(replaced, dtype=int)


def oracle_run_moead_nums(problem, z, kind, mu, budget, engine, params,
                          recorder):
    """The MOEA/D-NUMS loop built from the oracle operators above."""
    z = np.asarray(z, dtype=float)
    weights = nums_shift(uniform_simplex_set(problem.m, mu, engine), z,
                         params.tau)
    nbs = neighborhoods(weights, min(params.neighborhood_t, mu))
    t_size, n = nbs.shape[1], problem.n
    rate = params.mutation_prob
    if rate is None:
        rate = 1.0 / n
    span = problem.upper - problem.lower
    xs = problem.lower + engine.random((mu, problem.n)) * span
    fs = problem.evaluate_batch(xs)
    evals = mu
    state = NormalizationState(kind, problem.m)
    update_state(state, fs)
    recorder(evals, fs, state)
    while evals + mu <= budget:
        donor_keys = engine.random((mu, t_size))
        cross_draws = engine.random((mu, n))
        forced = engine.integers(n, size=mu)
        mutation = engine.random((2, mu, n))
        order_keys = engine.random((mu, t_size))
        batch = np.empty((mu, problem.m))
        for i in range(mu):
            slots = oracle_de_donor_slots(donor_keys[i], nbs[i], i)
            cross = cross_draws[i] < params.de_cr
            cross[forced[i]] = True
            trial = oracle_de_rand_1(i, xs, nbs[i][slots], cross,
                                     params.de_f)
            trial = np.clip(trial, problem.lower, problem.upper)
            trial = oracle_polynomial_mutation(
                trial, problem.lower, problem.upper, mutation[0, i] < rate,
                mutation[1, i], params.pm_eta)
            trial_f = problem.evaluate_batch(trial[None, :])[0]
            batch[i] = trial_f
            targets = oracle_moead_nums_replacement(
                trial_f, fs, weights, nbs[i], z, state, params.max_replace,
                order_keys[i], params.rho)
            if targets.size:
                xs[targets] = trial
                fs[targets] = trial_f
        evals += mu
        update_state(state, fs, batch)
        recorder(evals, fs, state)
    return fs


def oracle_linear_objectives(pos, g):
    """DTLZ1 objectives assembled one objective at a time."""
    n_rows, m_minus_1 = pos.shape
    m = m_minus_1 + 1
    cum = np.hstack([np.ones((n_rows, 1)), np.cumprod(pos, axis=1)])
    f = np.empty((n_rows, m))
    scale = 0.5 * (1.0 + g)
    f[:, 0] = scale * cum[:, m - 1]
    for j in range(2, m + 1):
        f[:, j - 1] = scale * cum[:, m - j] * (1.0 - pos[:, m - j])
    return f


def oracle_spherical_objectives(theta, g):
    """DTLZ2 objectives assembled one objective at a time."""
    n_rows, m_minus_1 = theta.shape
    m = m_minus_1 + 1
    cum = np.hstack([np.ones((n_rows, 1)), np.cumprod(np.cos(theta), axis=1)])
    f = np.empty((n_rows, m))
    scale = 1.0 + g
    f[:, 0] = scale * cum[:, m - 1]
    for j in range(2, m + 1):
        f[:, j - 1] = scale * cum[:, m - j] * np.sin(theta[:, m - j])
    return f


# Reference copies of the distance reductions of IGD+-C and epsilon-clearing
# as they stood before they were built one objective at a time; the current
# code must reproduce their bytes.

def oracle_epsilon_matrix(points, epsilon):
    """Within-epsilon matrix reduced from the full (n, n, m) difference."""
    diff = points[:, None, :] - points[None, :, :]
    return np.add.reduce(diff * diff, axis=-1) < epsilon * epsilon


def oracle_igd_plus_c(objs, roi):
    """IGD+-C reduced from the full (n_ref, N, m) difference array."""
    objs = np.asarray(objs, dtype=float)
    sols = roi.scaler.normalize(objs)
    diff = sols[None, :, :] - roi.points[:, None, :]
    np.maximum(diff, 0.0, out=diff)
    d = np.sqrt(np.sum(diff * diff, axis=2))
    return float(np.mean(d.min(axis=1)))


# Reference copies of the level peel, of crowding and of the NSGA-II,
# R-NSGA-II and r2nsga2 selections as they stood before sorting stopped
# once the survivors were placed and before a cell's runs were selected as
# one block; the current code must reproduce their levels, survivors,
# keys, draws and warnings.

reference_logger = logging.getLogger("conftest.reference")


def oracle_fronts_from_matrix(dom):
    """Level peel that peels every level and recounts each level's edges."""
    n = dom.shape[0]
    counts = dom.sum(axis=0).astype(int)
    assigned = np.zeros(n, dtype=bool)
    fronts = []
    remaining = n
    while remaining > 0:
        current = np.flatnonzero((counts == 0) & ~assigned)
        if current.size == 0:
            leftover = np.flatnonzero(~assigned)
            reference_logger.warning("cyclic dominance relation; %d "
                                     "individuals lumped into the last "
                                     "level", leftover.size)
            fronts.append(leftover.tolist())
            break
        fronts.append(current.tolist())
        assigned[current] = True
        remaining -= current.size
        counts -= dom[current].sum(axis=0).astype(int)
    return fronts


def oracle_crowding_distance(objs):
    """Crowding distance within one front, one argsort per objective."""
    objs = np.asarray(objs, dtype=float)
    n, m = objs.shape
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for j in range(m):
        order = np.argsort(objs[:, j], kind="stable")
        col = objs[order, j]
        rng = col[-1] - col[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if rng <= 0.0:
            continue
        gaps = (col[2:] - col[:-2]) / rng
        interior = order[1:-1]
        finite = ~np.isinf(dist[interior])
        dist[interior[finite]] += gaps[finite]
    return dist


def oracle_nsga2_selection(uf, mu):
    """NSGA-II's rank + crowding selection on a full sort of one union.

    Every level taken is crowded; the level that overflows keeps its most
    crowded members, ties by position.  Returns the survivors, their levels
    and their tournament keys (negated crowding).
    """
    keep, rank, crowd = [], [], []
    for level, idx in enumerate(oracle_sort(uf)):
        room = mu - len(keep)
        if room <= 0:
            break
        dist = oracle_crowding_distance(uf[idx])
        if idx.size > room:
            order = sorted(range(idx.size), key=lambda p: (-dist[p], p))
            idx, dist = idx[order[:room]], dist[order[:room]]
        keep.extend(idx.tolist())
        rank.extend([level] * idx.size)
        crowd.extend(dist.tolist())
    return (np.asarray(keep, dtype=int), np.asarray(rank, dtype=int),
            -np.asarray(crowd))


def oracle_rnsga2_environmental_selection(uf, dists, mu, epsilon, z_lb,
                                          z_ub, engine):
    """R-NSGA-II selection on a full sort, ordering levels with ``sorted``."""
    fronts = oracle_fronts_from_matrix(domination_matrix(uf))
    norm = normalize_value(uf, z_lb, z_ub)
    keep = []
    for front in fronts:
        room = mu - len(keep)
        if room <= 0:
            break
        idx = np.asarray(front, dtype=int)
        if idx.size <= room:
            keep.extend(idx.tolist())
            continue
        survivors, reserve = epsilon_clear(norm[idx], epsilon, engine)
        ordered = [idx[pos] for pos in
                   sorted(survivors, key=lambda p: (dists[idx[p]], p))]
        ordered += [idx[pos] for pos in
                    sorted(reserve, key=lambda p: (dists[idx[p]], p))]
        keep.extend(ordered[:room])
    keep_arr = np.asarray(keep, dtype=int)
    rank = np.empty(uf.shape[0], dtype=int)
    for level, front in enumerate(fronts):
        rank[np.asarray(front, dtype=int)] = level
    return keep_arr, rank[keep_arr]


def oracle_r2nsga2_selection(uf, dists, delta, mu):
    """r2nsga2's selection on a full r-dominance peel, crowding every level.

    Levels are taken whole while they fit; the level that overflows keeps
    its most crowded members, ties by position.  Returns the survivors,
    their levels, their tournament keys (reference distances) and the full
    peel.
    """
    fronts = oracle_fronts_from_matrix(r_domination_matrix(uf, dists, delta))
    keep, rank = [], []
    for level, front in enumerate(fronts):
        room = mu - len(keep)
        if room <= 0:
            break
        idx = np.asarray(front, dtype=int)
        crowd = oracle_crowding_distance(uf[idx])
        if idx.size > room:
            order = sorted(range(idx.size), key=lambda p: (-crowd[p], p))
            idx = idx[order[:room]]
        keep.extend(idx.tolist())
        rank.extend([level] * idx.size)
    keep_arr = np.asarray(keep, dtype=int)
    return keep_arr, np.asarray(rank, dtype=int), dists[keep_arr], fronts


@pytest.fixture
def engine():
    return make_engine(12345)


def random_objs(engine, n, m, duplicates=False):
    """Random objective matrix; optionally repeat some rows."""
    objs = engine.uniform(0.0, 1.0, size=(n, m))
    if duplicates and n >= 4:
        objs[n // 2] = objs[0]
        objs[-1] = objs[1]
    return objs
