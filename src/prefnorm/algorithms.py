"""The four optimizers: NSGA-II and three preference-based variants.

All algorithms are generational with lambda = mu offspring per generation
and share the same normalization-state update cadence: the state refreshes
once per generation from the parent+offspring union (the offspring batch
alone feeds the bounded archive), right before environmental selection, and
once at initialization from the initial population.

Identifiers
-----------
``nsga2``
    plain NSGA-II (rank + crowding), no preference information,
``rnsga2``
    reference-distance R-NSGA-II: rank first, then ascending weighted
    distance to the reference point, with epsilon-clearing for diversity,
``r2nsga2``
    r-dominance NSGA-II: the sorting relation itself blends Pareto
    dominance with the reference-point distance,
``moead-nums``
    decomposition with the whole weight set shifted toward the reference
    point.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .normalization import (EPS_DENOM, NormalizationState, normalize_value,
                            update_state)
from .problems import Problem
from .ranking import (_sq_dists, crowding_distance, nondominated_sort,
                      r_domination_matrix, fronts_from_matrix)
from .variation import (de_rand_1, de_rand_1_draws, polynomial_mutation,
                        polynomial_mutation_batch, run_draws, sbx_batch)
from .weights import neighborhoods, nums_shift, uniform_simplex_set

AASF_RHO = 1e-6
# member pairs one survivor-selection call covers: the runs of a block are
# selected in groups whose (N, N) relations stay in cache, so 31 runs of a
# 40-member union are one call and 200-member unions go six at a time
SELECT_PAIRS = 2**18

# a runner's observer, called at every generation boundary with (evals,
# objectives, state): the (R, N, m) objectives of all the runner's runs and
# the state that holds their bounds
Recorder = Callable[[int, np.ndarray, NormalizationState], None]


@dataclass
class AlgorithmParams:
    """Operator parameters shared by the four algorithms.

    GA-path (NSGA-II family): SBX + polynomial mutation.  DE-path
    (decomposition): DE/rand/1 + polynomial mutation.  ``mutation_prob``
    defaults to 1/n at run time.
    """

    crossover_prob: float = 1.0
    sbx_eta: float = 30.0
    pm_eta: float = 20.0
    mutation_prob: float | None = None
    epsilon_clear: float = 0.001
    delta: float = 0.3
    tau: float = 0.3
    de_f: float = 0.5
    de_cr: float = 1.0
    neighborhood_t: int = 20
    max_replace: int = 2
    rho: float = AASF_RHO


def weighted_ref_distance(objs: np.ndarray, z: np.ndarray, w: np.ndarray,
                          z_lb: np.ndarray, z_ub: np.ndarray) -> np.ndarray:
    """Weighted normalized Euclidean distance to the reference point.

    d(x) = sqrt( sum_i w_i ((f_i - z_i) / (z_ub_i - z_lb_i))^2 ), with the
    range floored the same way as :func:`normalize_value`.
    """
    objs = np.asarray(objs, dtype=float)
    span = np.maximum(np.asarray(z_ub, dtype=float) - z_lb, EPS_DENOM)
    scaled = (objs - z) / span
    return np.sqrt(np.sum(w * scaled * scaled, axis=-1))


def _aasf_of_gap(w: np.ndarray, gap: np.ndarray,
                 rho: float) -> float | np.ndarray:
    """Augmented achievement scalarizing value from the normalized gap.

    ``gap`` is ``f - z`` after both pass through the current bounds (rows
    along the last axis), and ``w`` broadcasts against it.
    """
    return (w * gap).max(axis=-1) + rho * gap.sum(axis=-1)


def _binary_tournament(primary: np.ndarray, secondary: np.ndarray,
                       count: int, engines: Sequence[np.random.Generator]
                       ) -> np.ndarray:
    """(R, count) winners of (R, N) keys, as positions in the R·N members
    stacked run after run; lower (primary, secondary) wins."""
    n = primary.shape[1]
    cand = np.array([engine.integers(0, n, size=(count, 2))
                     for engine in engines])
    first = n * np.arange(len(engines))[:, None]
    a, b = cand[..., 0] + first, cand[..., 1] + first
    p, s = primary.ravel(), secondary.ravel()
    return np.where((p[a] < p[b]) | ((p[a] == p[b]) & (s[a] <= s[b])), a, b)


def epsilon_clear(points: np.ndarray, epsilon: float,
                  engine: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Thin a point set so no two survivors are closer than ``epsilon``.

    Points are visited in random order; a visited point joins the survivors
    unless it lies strictly within ``epsilon`` of one, in which case it goes
    to the reserve.  Random visiting order makes the surviving member of any
    close pair random.  Returns (survivor positions, reserve positions).
    """
    n = points.shape[0]
    order = engine.permutation(n)
    close = _sq_dists(points, points) < epsilon * epsilon
    np.fill_diagonal(close, False)
    # closeness is symmetric, so a point with no neighbour within epsilon
    # is never blocked and blocks nothing: only crowded points are walked
    walk = order[close.any(axis=1)[order]]
    # blocked marks the points within epsilon of a survivor so far
    blocked = np.zeros(n, dtype=bool)
    cleared = np.zeros(n, dtype=bool)
    for pos in walk.tolist():
        if blocked[pos]:
            cleared[pos] = True
        else:
            blocked |= close[pos]
    return order[~cleared[order]], walk[cleared[walk]]


def _random_population(problem: Problem, mu: int,
                       engines: Sequence[np.random.Generator]) -> np.ndarray:
    span = problem.upper - problem.lower
    return problem.lower + run_draws(engines, (mu, problem.n)) * span


def _evaluate(problem: Problem, xs: np.ndarray) -> np.ndarray:
    """Objectives of an (R, N, n) block, evaluated as one batch."""
    return problem.evaluate_batch(xs.reshape(-1, problem.n)).reshape(
        *xs.shape[:-1], problem.m)


def _ga_offspring(xs: np.ndarray, winners: np.ndarray, problem: Problem,
                  params: AlgorithmParams,
                  engines: Sequence[np.random.Generator]) -> np.ndarray:
    """SBX + polynomial mutation on tournament-selected parent pairs."""
    parents = xs.reshape(-1, problem.n)[winners]
    children = np.empty_like(parents)
    children[:, 0::2], children[:, 1::2] = sbx_batch(
        parents[:, 0::2], parents[:, 1::2], problem.lower, problem.upper,
        engines, params.sbx_eta, params.crossover_prob)
    return polynomial_mutation_batch(children, problem.lower, problem.upper,
                                     engines, params.pm_eta,
                                     params.mutation_prob)


def _check_setup(mu: int, budget: int, m: int, kinds: Sequence[str],
                 engines: Sequence[np.random.Generator]) -> None:
    if len(kinds) != len(engines):
        raise ValueError(f"kinds and engines must pair up one to one, got "
                         f"{len(kinds)} kinds and {len(engines)} engines")
    if mu < 4:
        raise ValueError(f"mu must be >= 4, got {mu}")
    if mu < 2 * m:
        raise ValueError(f"mu must be at least 2m = {2 * m}, got {mu}")
    if budget < mu:
        raise ValueError(f"budget {budget} smaller than one population {mu}")


def _cut(levels: np.ndarray, mu: int) -> tuple[np.ndarray, np.ndarray]:
    """Each run's cut level and the members of the cut levels that overflow.

    A run's cut level, returned as an (R, 1) column, is the level of its
    mu-th member in level order.  The (R, N) mask marks the members of
    every cut level that holds more members than the room left for it.
    """
    order = np.sort(levels, axis=1)
    cut = order[:, mu - 1:mu]
    # it overflows when the next member in level order shares it
    over = (order[:, mu:mu + 1] == cut).any(axis=1, keepdims=True)
    return cut, (levels == cut) & over


def _truncate(levels: np.ndarray, mu: int, *keys: np.ndarray) -> np.ndarray:
    """(R, mu) survivors of each run, in level order.

    Levels below a run's cut are kept whole, in index order, as is a cut
    level that fits.  The members of an overflowing cut level are ordered
    by ``keys``, least significant first, ties by index; every key is 0
    outside those members.
    """
    return np.lexsort(keys + (levels,))[:, :mu]


def _front_labels(levels: np.ndarray) -> np.ndarray:
    """(R, N) labels that tell every (run, level) pair apart."""
    return levels + (levels.shape[1] + 1) * np.arange(len(levels))[:, None]


def _run_generational(problem: Problem, kinds: Sequence[str], mu: int,
                      budget: int, engines: Sequence[np.random.Generator],
                      params: AlgorithmParams, recorder: Recorder | None,
                      select: Callable) -> list[np.ndarray]:
    """The NSGA-II generational loop with a pluggable survivor selection.

    The runs of ``engines`` step together: a generation's tournament, SBX
    and mutation form one (R, mu, n) block, run r drawing from
    ``engines[r]`` in its own order, and its R·mu offspring one evaluation.
    One state of R runs, run r normalizing by ``kinds[r]``, takes the
    update, and ``recorder`` sees all R runs in one call.  Then
    ``select(union_objs, z_lb, z_ub, engines)`` takes the (R, N, m) unions
    and the (R, m) bounds as one block, or in groups of runs that fit
    :data:`SELECT_PAIRS`, and returns the (R, mu) survivors' positions and
    the (R, N) primary and secondary tournament keys of every member (lower
    wins; only the survivors' are read); a selection that draws takes run
    r's draws from ``engines[r]``.  Returns each run's final (mu, m)
    objectives.
    """
    if mu % 2:
        raise ValueError(f"mu must be even, got {mu}")
    _check_setup(mu, budget, problem.m, kinds, engines)
    rows = np.arange(len(engines))[:, None]
    xs = _random_population(problem, mu, engines)
    fs = _evaluate(problem, xs)
    evals = mu
    state = NormalizationState(kinds, problem.m)
    update_state(state, fs)
    # the initial population keys itself through the same selection, in
    # which every member survives
    _, primary, secondary = _select_groups(select, fs, state, engines)
    if recorder:
        recorder(evals, fs, state)
    while evals + mu <= budget:
        winners = _binary_tournament(primary, secondary, mu, engines)
        child_x = _ga_offspring(xs, winners, problem, params, engines)
        child_f = _evaluate(problem, child_x)
        evals += mu
        update_state(state, fs, child_f)
        ux = np.concatenate([xs, child_x], axis=1)
        uf = np.concatenate([fs, child_f], axis=1)
        keep, first, second = _select_groups(select, uf, state, engines)
        xs, fs = ux[rows, keep], uf[rows, keep]
        primary, secondary = first[rows, keep], second[rows, keep]
        if recorder:
            recorder(evals, fs, state)
    return list(fs)


def _select_groups(select: Callable, uf: np.ndarray,
                   state: NormalizationState,
                   engines: Sequence[np.random.Generator]) -> tuple:
    """``select`` on each group of runs that :data:`SELECT_PAIRS` allows,
    with the group's slice of the bounds, the results joined along the run
    axis."""
    step = max(1, SELECT_PAIRS // uf.shape[1] ** 2)
    parts = [select(uf[lo:lo + step], state.z_lb[lo:lo + step],
                    state.z_ub[lo:lo + step], engines[lo:lo + step])
             for lo in range(0, len(uf), step)]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(part) for part in zip(*parts))


def run_nsga2(problem: Problem, z: np.ndarray, kinds: Sequence[str],
              mu: int, budget: int, engines: Sequence[np.random.Generator],
              params: AlgorithmParams | None = None,
              recorder: Recorder | None = None) -> list[np.ndarray]:
    """Plain NSGA-II; ``z`` is ignored, the state is tracked for recording.

    Survivors are ranked by level, then by crowding within the level that
    overflows; the tournament reads every survivor's crowding, so each
    level up to the cut is crowded.
    """
    def select(uf, z_lb, z_ub, engines):
        levels = nondominated_sort(uf, mu)
        cut, over = _cut(levels, mu)
        scored = levels <= cut
        crowd = np.zeros(levels.shape)
        labels = _front_labels(levels)[scored]
        crowd[scored] = -crowding_distance(uf[scored], labels)
        return _truncate(levels, mu, np.where(over, crowd, 0.0)), levels, crowd

    return _run_generational(problem, kinds, mu, budget, engines,
                             params or AlgorithmParams(), recorder, select)


def rnsga2_environmental_selection(uf: np.ndarray, dists: np.ndarray,
                                   mu: int, epsilon: float,
                                   z_lb: np.ndarray, z_ub: np.ndarray,
                                   engines: Sequence[np.random.Generator]
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Reference-distance selection of mu members of each run's union.

    ``uf`` is an (R, N, m) block of unions with (R, N) reference distances
    ``dists`` and (R, m) bounds.  Non-domination level is the primary
    criterion.  Inside the level that overflows, members are taken in
    ascending reference distance after epsilon-clearing in the normalized
    objective space, run r clearing with ``engines[r]``; cleared-away
    members re-enter (still by ascending distance) only when the level's
    survivors cannot fill the remaining room, so a level is never skipped
    over.  Returns the (R, mu) survivors and the (R, N) levels.
    """
    levels = nondominated_sort(uf, mu)
    _, over = _cut(levels, mu)
    cleared = np.zeros(levels.shape)
    # a level that fits keeps its sorted order, so only an overflowing one
    # is cleared
    for run in np.flatnonzero(over.any(axis=1)):
        idx = np.flatnonzero(over[run])
        norm = normalize_value(uf[run, idx], z_lb[run], z_ub[run])
        _, reserve = epsilon_clear(norm, epsilon, engines[run])
        cleared[run, idx[reserve]] = 1.0
    # survivors first, each group by ascending distance, ties by position
    return _truncate(levels, mu, np.where(over, dists, 0.0), cleared), levels


def run_rnsga2(problem: Problem, z: np.ndarray, kinds: Sequence[str],
               mu: int, budget: int, engines: Sequence[np.random.Generator],
               params: AlgorithmParams | None = None,
               recorder: Recorder | None = None) -> list[np.ndarray]:
    """Reference-distance R-NSGA-II."""
    params = params or AlgorithmParams()
    z = np.asarray(z, dtype=float)
    w = np.full(problem.m, 1.0 / problem.m)

    def select(uf, z_lb, z_ub, engines):
        dist = weighted_ref_distance(uf, z, w, z_lb[:, None], z_ub[:, None])
        return (*rnsga2_environmental_selection(
            uf, dist, mu, params.epsilon_clear, z_lb, z_ub, engines), dist)

    return _run_generational(problem, kinds, mu, budget, engines, params,
                             recorder, select)


def run_r2nsga2(problem: Problem, z: np.ndarray, kinds: Sequence[str],
                mu: int, budget: int, engines: Sequence[np.random.Generator],
                params: AlgorithmParams | None = None,
                recorder: Recorder | None = None) -> list[np.ndarray]:
    """NSGA-II with the r-dominance relation replacing Pareto dominance."""
    params = params or AlgorithmParams()
    z = np.asarray(z, dtype=float)
    w = np.full(problem.m, 1.0 / problem.m)

    def select(uf, z_lb, z_ub, engines):
        dist = weighted_ref_distance(uf, z, w, z_lb[:, None], z_ub[:, None])
        levels = fronts_from_matrix(
            r_domination_matrix(uf, dist, params.delta), mu)
        _, over = _cut(levels, mu)
        # the tournament reads distances, so only an overflowing level
        # needs its crowding
        crowd = np.zeros(levels.shape)
        labels = _front_labels(levels)[over]
        crowd[over] = -crowding_distance(uf[over], labels)
        return _truncate(levels, mu, crowd), levels, dist

    return _run_generational(problem, kinds, mu, budget, engines, params,
                             recorder, select)


def moead_nums_replacement(trial_vals: np.ndarray, incumbent: np.ndarray,
                           max_replace: int,
                           order: np.ndarray) -> np.ndarray:
    """Neighbourhood positions the trial should replace (at most max_replace).

    ``trial_vals`` and ``incumbent`` hold, per neighbour, the AASF value of
    the trial and of that neighbour's incumbent, both under the neighbour's
    weight and the current bounds.  Neighbours are visited in the random
    permutation ``order``; the trial wins a slot when its value is strictly
    lower.
    """
    return order[(trial_vals < incumbent)[order]][:max_replace]


def run_moead_nums(problem: Problem, z: np.ndarray, kinds: Sequence[str],
                   mu: int, budget: int,
                   engines: Sequence[np.random.Generator],
                   params: AlgorithmParams | None = None,
                   recorder: Recorder | None = None) -> list[np.ndarray]:
    """Decomposition search on a weight set shifted toward ``z``.

    Trials are steady-state: each one may read rows that earlier trials of
    its generation replaced.  Every random number a generation needs is
    drawn before its first trial, in five calls per engine whatever mu: DE
    donor keys, crossover draws, forced crossover genes, mutation masks and
    steps, and replacement visiting orders.  The bounds change only between
    generations, so each incumbent's AASF value under its own weight is
    scored once per generation and cached; a replaced slot takes over the
    trial's value.  The cache therefore always equals a fresh
    :func:`_aasf_of_gap` score of ``fs`` under the current bounds.

    Those draws let each generation build, evaluate and score all mu
    trials at once from its starting rows.  A trial reads its three donors,
    and its target when its crossover mask leaves the target at least one
    gene (with ``de_cr`` = 1 the target row is never read).  Replacing a
    slot flags every trial that reads it as stale.  When the sequential
    pass reaches a flagged trial i, it rebuilds, evaluates and scores as
    one block (a wave) every trial from i on flagged at that moment, from
    the current rows, and clears their flags; a later replacement can flag
    a rebuilt trial again.  So each trial is built from the rows a
    one-at-a-time loop would read.  A row a wave replaces was evaluated
    for nothing, is discarded and never counts against the budget.
    Replacement against the cached incumbents stays sequential, so the
    result is the same, byte for byte, as building every trial in turn.

    The runs of ``engines`` step generation by generation: the initial
    population is one (R, mu, n) block and one evaluation, one state of R
    runs, run r normalizing by ``kinds[r]``, takes one update per
    generation, and ``recorder`` sees all R runs in one call.  Each run
    keeps its own weights, neighbourhoods, draws from ``engines[r]``,
    waves and replacement pass.
    """
    params = params or AlgorithmParams()
    if params.rho <= 0.0:
        raise ValueError(f"rho must be positive, got {params.rho}")
    if params.max_replace < 1:
        raise ValueError(f"max_replace must be >= 1, got {params.max_replace}")
    _check_setup(mu, budget, problem.m, kinds, engines)
    t_size = min(params.neighborhood_t, mu)
    if t_size < 4:
        raise ValueError("a neighbourhood needs at least 4 slots (the target "
                         f"and three DE/rand/1 donors), got {t_size}")
    z = np.asarray(z, dtype=float)
    lower, upper, n = problem.lower, problem.upper, problem.n
    rate = 1.0 / n if params.mutation_prob is None else params.mutation_prob
    rows = np.arange(mu)
    # (R, mu, m) weights, (R, mu, T) neighbourhoods and their weights
    weights = np.array([nums_shift(uniform_simplex_set(problem.m, mu, engine),
                                   z, params.tau) for engine in engines])
    nbs = np.array([neighborhoods(w, t_size) for w in weights])
    nb_weights = weights[np.arange(len(engines))[:, None, None], nbs]
    xs = _random_population(problem, mu, engines)
    fs = _evaluate(problem, xs)
    evals = mu
    state = NormalizationState(kinds, problem.m)
    update_state(state, fs)
    if recorder:
        recorder(evals, fs, state)

    def build(x, target, donors, cross, do, u):
        trial = de_rand_1(target, x, donors, cross, params.de_f)
        trial = trial.clip(lower, upper)
        return polynomial_mutation(trial, lower, upper, do, u, params.pm_eta)

    def score(r, w, f):
        # run r's AASF under the bounds of the generation the loop is in
        return _aasf_of_gap(w, (f - z_lb[r]) / span[r] - zn[r], params.rho)

    while evals + mu <= budget:
        draws = [de_rand_1_draws(nb == rows[:, None], n, params.de_cr, engine)
                 for nb, engine in zip(nbs, engines)]
        do, u = run_draws(engines, (2, mu, n)).swapaxes(0, 1)
        do = do < rate
        orders = run_draws(engines, (mu, t_size)).argsort(axis=-1,
                                                          kind="stable")
        z_lb = state.z_lb
        span = np.maximum(state.z_ub - z_lb, EPS_DENOM)
        zn = (z - z_lb) / span
        # row i of a run ends up holding its trial i's objectives,
        # speculative or rebuilt
        batch = np.empty_like(fs)
        for r, (slots, cross) in enumerate(draws):
            x, f, trial_f = xs[r], fs[r], batch[r]
            donors = np.take_along_axis(nbs[r], slots, axis=1)
            incumbent = score(r, weights[r], f)
            trials = build(x, rows, donors.T, cross, do[r], u[r])
            trial_f[:] = problem.evaluate_batch(trials)
            scores = score(r, nb_weights[r], trial_f[:, None])
            # readers[s, j]: trial j reads slot s, so replacing s makes j
            # stale
            readers = np.zeros((mu, mu), dtype=bool)
            readers[donors, rows[:, None]] = True
            readers[rows, rows] = ~cross.all(axis=1)
            stale = np.zeros(mu, dtype=bool)
            for i in range(mu):
                if stale[i]:
                    wave = i + np.flatnonzero(stale[i:])
                    trials[wave] = build(x, wave, donors[wave].T,
                                         cross[wave], do[r, wave],
                                         u[r, wave])
                    trial_f[wave] = problem.evaluate_batch(trials[wave])
                    scores[wave] = score(r, nb_weights[r, wave],
                                         trial_f[wave][:, None])
                    stale[wave] = False
                nb = nbs[r, i]
                won = moead_nums_replacement(scores[i], incumbent[nb],
                                             params.max_replace,
                                             orders[r, i])
                if won.size:
                    targets = nb[won]
                    x[targets] = trials[i]
                    f[targets] = trial_f[i]
                    incumbent[targets] = scores[i, won]
                    for slot in targets.tolist():
                        stale |= readers[slot]
        evals += mu
        update_state(state, fs, batch)
        if recorder:
            recorder(evals, fs, state)
    return list(fs)


ALGORITHMS: dict[str, Callable] = {
    "nsga2": run_nsga2,
    "rnsga2": run_rnsga2,
    "r2nsga2": run_r2nsga2,
    "moead-nums": run_moead_nums,
}
