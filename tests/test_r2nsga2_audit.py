"""Per-generation audit of r2nsga2's survivor selection against the oracle.

The audit needs no hook in ``src/``: like ``test_moead_audit.py`` it wraps
the names ``run_r2nsga2`` looks up in ``prefnorm.algorithms``.

* ``r_domination_matrix`` hands over each union, its reference distances
  and its r-dominance matrix;
* ``_truncate`` hands over the levels the peel returned, every ``take``
  call with its remaining room, and the survivors with their levels;
* ``crowding_distance`` records the rows it scores;
* ``_binary_tournament`` shows the keys the next generation selects on.

``conftest.oracle_r2nsga2_selection`` is the selection as it stood when
r2nsga2 peeled every level and crowded every level it took.  On every
generation, the initial population's included:

* the levels passed to ``_truncate`` are the shortest prefix of the
  oracle's full peel that holds mu members, a cyclic lump included when
  the peel reaches it;
* the survivors and their levels equal the oracle's, byte for byte, and
  the recorded population is the union's survivors (the initial
  population keeps its rows);
* the tournament keys equal the oracle's levels and reference distances
  (the initial population's reordered back to its rows); the last
  generation's keys reach no tournament and go unchecked;
* crowding runs at most once, on the rows of a level larger than the
  room left for it.

delta 0.3 with mu 100 gives every one of these runs r-dominance cycles
both inside the survivors' levels and past them, and each run asserts
that it saw both.
"""
import numpy as np
import pytest

from conftest import oracle_r2nsga2_selection
from prefnorm import algorithms
from prefnorm.algorithms import AlgorithmParams, run_r2nsga2
from prefnorm.core import make_engine
from prefnorm.problems import get_problem
from prefnorm.refpoints import default_reference_point

MU, BUDGET, DELTA = 100, 10_000, 0.3


class R2nsga2Audit:
    """Watches one ``run_r2nsga2`` call through wrapped lookups."""

    def __init__(self, mu, delta):
        self.mu, self.delta = mu, delta
        self.union = None       # (objectives, distances, r-dominance)
        self.crowded: list[np.ndarray] = []
        self.survivors = None   # the union's survivors, for the recorder
        self.keys = None        # the tournament keys the oracle expects
        self.generations = self.crowdings = 0
        self.lumps_reached = self.lumps_past = 0

    def install(self, monkeypatch):
        r_matrix = algorithms.r_domination_matrix
        truncate = algorithms._truncate
        crowding = algorithms.crowding_distance
        tournament = algorithms._binary_tournament

        def watch_r_matrix(objs, dists, delta):
            dom = r_matrix(objs, dists, delta)
            assert delta == self.delta
            self.union = (np.array(objs), np.array(dists), dom.copy())
            return dom

        def watch_crowding(objs):
            self.crowded.append(np.array(objs))
            return crowding(objs)

        def watch_truncate(fronts, mu, take):
            takes = []

            def watch_take(idx, room):
                before = len(self.crowded)
                got = take(idx, room)
                takes.append((idx.copy(), room, self.crowded[before:]))
                return got

            keep, rank = truncate(fronts, mu, watch_take)
            self.check_selection(fronts, keep, rank, takes)
            return keep, rank

        def watch_tournament(primary, secondary, count, engines):
            rank, dist = self.keys
            assert primary.tobytes() == rank.tobytes()
            assert secondary.tobytes() == dist.tobytes()
            return tournament(primary, secondary, count, engines)

        monkeypatch.setattr(algorithms, "r_domination_matrix", watch_r_matrix)
        monkeypatch.setattr(algorithms, "crowding_distance", watch_crowding)
        monkeypatch.setattr(algorithms, "_truncate", watch_truncate)
        monkeypatch.setattr(algorithms, "_binary_tournament",
                            watch_tournament)

    def check_selection(self, fronts, keep, rank, takes):
        assert self.union is not None, "a selection without its union"
        uf, dist, dom = self.union
        self.union = None
        want_keep, want_rank, want_keys, full = oracle_r2nsga2_selection(
            uf, dist, self.delta, self.mu)
        # the shortest prefix of the full peel that holds mu members
        placed = np.cumsum([len(front) for front in full])
        size = int(np.searchsorted(placed, min(self.mu, uf.shape[0]))) + 1
        assert fronts == full[:size]
        last = np.asarray(full[-1], dtype=int)
        if dom[np.ix_(last, last)].any():
            if size == len(full):
                self.lumps_reached += 1
            else:
                self.lumps_past += 1
        assert keep.tobytes() == want_keep.tobytes()
        assert rank.tobytes() == want_rank.tobytes()
        calls = [(idx, room, crowded) for idx, room, crowded in takes
                 if crowded]
        assert len(self.crowded) == sum(len(c) for _, _, c in calls), (
            "crowding ran outside a take")
        assert len(self.crowded) <= 1, "crowded more than one level"
        for idx, room, crowded in calls:
            assert idx.size > room, "crowded a level that fits"
            assert crowded[0].tobytes() == uf[idx].tobytes()
        self.crowdings += len(self.crowded)
        self.crowded = []
        if self.generations == 0:
            # the initial population keeps its rows, and its keys go back
            # to them
            back = np.argsort(keep)
            self.survivors = uf
            self.keys = (want_rank[back], want_keys[back])
        else:
            self.survivors = uf[keep]
            self.keys = (want_rank, want_keys)

    def record(self, evals, fs, state):
        assert fs.tobytes() == self.survivors.tobytes()
        self.generations += 1


@pytest.mark.parametrize("kind", ["pp", "ba"])
@pytest.mark.parametrize("name,m", [("dtlz2", 2), ("dtlz2", 3),
                                    ("sdtlz2", 5)])
def test_every_generation_matches_full_peel(name, m, kind, monkeypatch):
    problem = get_problem(name, m)
    audit = R2nsga2Audit(MU, DELTA)
    with monkeypatch.context() as patch:
        audit.install(patch)
        run_r2nsga2(problem, default_reference_point(name, m), kind, MU,
                    BUDGET, [make_engine(m)], AlgorithmParams(delta=DELTA),
                    [audit.record])
    assert audit.generations == BUDGET // MU
    # the audit saw a level crowded, and cycles both inside the peel and
    # past it
    assert audit.crowdings > 0
    assert audit.lumps_reached > 0
    assert audit.lumps_past > 0
