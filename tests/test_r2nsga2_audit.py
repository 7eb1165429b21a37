"""Per-generation audit of r2nsga2's survivor selection against the oracle.

The audit needs no hook in ``src/``: like ``test_moead_audit.py`` it wraps
the names ``run_r2nsga2`` looks up in ``prefnorm.algorithms``.  A cell of
two runs is selected as one block, and every check below holds per run.

* ``r_domination_matrix`` hands over the block of unions, their reference
  distances and their r-dominance matrices;
* ``fronts_from_matrix`` hands over the levels the peel returned;
* ``crowding_distance`` records the rows it scores and their fronts;
* ``_truncate`` hands over the survivors;
* ``_binary_tournament`` shows the keys the next generation selects on.

``conftest.oracle_r2nsga2_selection`` is the selection as it stood when
r2nsga2 peeled every level of one run and crowded every level it took.
On every generation, the initial population's included, and for each run:

* the peeled levels are the shortest prefix of the oracle's full peel
  that holds mu members, a cyclic lump included when the peel reaches it;
  members past that prefix are unplaced (level N);
* the survivors equal the oracle's, byte for byte, and the recorded
  population is the union's survivors (the initial population keeps its
  rows);
* the tournament keys equal the oracle's levels and reference distances
  (the initial population's reordered back to its rows); the last
  generation's keys reach no tournament and go unchecked;
* crowding runs at most once per generation, and it scores, as one
  front per run, exactly the rows of each run's level that is larger than
  the room left for it, and no row of a run whose levels fit.

delta 0.3 with mu 100 gives every one of these cells r-dominance cycles
both inside the survivors' levels and past them, and each cell asserts
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

MU, BUDGET, DELTA, RUNS = 100, 10_000, 0.3, 2


class R2nsga2Audit:
    """Watches one ``run_r2nsga2`` call through wrapped lookups."""

    def __init__(self, mu, delta):
        self.mu, self.delta = mu, delta
        self.union = None       # (objectives, distances, r-dominance)
        self.levels = None      # the peel's (R, N) levels
        self.crowded: list[tuple[np.ndarray, np.ndarray]] = []
        self.survivors = None   # each run's survivors, for its recorder
        self.keys = None        # the tournament keys the oracle expects
        self.generations = self.crowdings = 0
        self.lumps_reached = self.lumps_past = 0

    def install(self, monkeypatch):
        r_matrix = algorithms.r_domination_matrix
        peel = algorithms.fronts_from_matrix
        crowding = algorithms.crowding_distance
        truncate = algorithms._truncate
        tournament = algorithms._binary_tournament

        def watch_r_matrix(objs, dists, delta):
            dom = r_matrix(objs, dists, delta)
            assert delta == self.delta
            self.union = (np.array(objs), np.array(dists), dom.copy())
            return dom

        def watch_peel(dom, size):
            assert size == self.mu
            self.levels = peel(dom, size)
            return self.levels

        def watch_crowding(objs, groups):
            self.crowded.append((np.array(objs), np.array(groups)))
            return crowding(objs, groups)

        def watch_truncate(levels, mu, *keys):
            keep = truncate(levels, mu, *keys)
            self.check_selection(keep)
            return keep

        def watch_tournament(primary, secondary, count, engines):
            rank, dist = self.keys
            assert primary.tobytes() == rank.tobytes()
            assert secondary.tobytes() == dist.tobytes()
            return tournament(primary, secondary, count, engines)

        monkeypatch.setattr(algorithms, "r_domination_matrix", watch_r_matrix)
        monkeypatch.setattr(algorithms, "fronts_from_matrix", watch_peel)
        monkeypatch.setattr(algorithms, "crowding_distance", watch_crowding)
        monkeypatch.setattr(algorithms, "_truncate", watch_truncate)
        monkeypatch.setattr(algorithms, "_binary_tournament",
                            watch_tournament)

    def check_selection(self, keep):
        assert self.union is not None, "a selection without its union"
        assert self.levels is not None, "a selection without its peel"
        (uf, dist, dom), levels = self.union, self.levels
        self.union = self.levels = None
        n = uf.shape[1]
        assert len(self.crowded) <= 1, "crowded more than once"
        rows, fronts = (self.crowded[0] if self.crowded
                        else (np.empty((0, uf.shape[2])), np.empty(0)))
        self.crowded = []
        survivors, ranks, dists, start = [], [], [], 0
        for run in range(len(uf)):
            want_keep, want_rank, want_keys, full = oracle_r2nsga2_selection(
                uf[run], dist[run], self.delta, self.mu)
            # the shortest prefix of the full peel that holds mu members
            placed = np.cumsum([len(front) for front in full])
            size = int(np.searchsorted(placed, min(self.mu, n))) + 1
            want_levels = np.full(n, n)
            for level, front in enumerate(full[:size]):
                want_levels[np.asarray(front, dtype=int)] = level
            assert levels[run].tobytes() == want_levels.tobytes()
            last = np.asarray(full[-1], dtype=int)
            if dom[run][np.ix_(last, last)].any():
                if size == len(full):
                    self.lumps_reached += 1
                else:
                    self.lumps_past += 1
            assert keep[run].tobytes() == want_keep.tobytes()
            # this run's crowded rows: its cut level when that level is
            # larger than its room, else none
            cut = np.asarray(full[size - 1], dtype=int)
            room = self.mu - (placed[size - 2] if size > 1 else 0)
            if cut.size > room:
                end = start + cut.size
                assert rows[start:end].tobytes() == uf[run][cut].tobytes()
                assert np.unique(fronts[start:end]).size == 1
                assert fronts[start] not in fronts[:start]
                self.crowdings += 1
                start = end
            if self.generations == 0:
                # the initial population keeps its rows, and its keys go
                # back to them
                back = np.argsort(want_keep)
                survivors.append(uf[run])
                want_rank, want_keys = want_rank[back], want_keys[back]
            else:
                survivors.append(uf[run][want_keep])
            ranks.append(want_rank)
            dists.append(want_keys)
        assert start == len(rows), "crowded a level that fits"
        self.survivors = survivors
        self.keys = (np.array(ranks), np.array(dists))

    def recorder(self, run):
        def record(evals, fs, state):
            assert fs.tobytes() == self.survivors[run].tobytes()
            if run == 0:
                self.generations += 1
        return record


@pytest.mark.parametrize("kind", ["pp", "ba"])
@pytest.mark.parametrize("name,m", [("dtlz2", 2), ("dtlz2", 3),
                                    ("sdtlz2", 5)])
def test_every_generation_matches_full_peel(name, m, kind, monkeypatch):
    problem = get_problem(name, m)
    audit = R2nsga2Audit(MU, DELTA)
    with monkeypatch.context() as patch:
        audit.install(patch)
        run_r2nsga2(problem, default_reference_point(name, m), kind, MU,
                    BUDGET, [make_engine(m + 100 * r) for r in range(RUNS)],
                    AlgorithmParams(delta=DELTA),
                    [audit.recorder(r) for r in range(RUNS)])
    assert audit.generations == BUDGET // MU
    # the audit saw a level crowded, and cycles both inside the peel and
    # past it
    assert audit.crowdings > 0
    assert audit.lumps_reached > 0
    assert audit.lumps_past > 0
