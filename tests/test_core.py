"""Engine construction and seed derivation."""
import numpy as np
import pytest

from prefnorm.core import derive_run_seed, make_engine


def test_make_engine_is_deterministic():
    a = make_engine(42).uniform(size=10)
    b = make_engine(42).uniform(size=10)
    assert np.array_equal(a, b)


def test_make_engine_differs_by_seed():
    a = make_engine(1).uniform(size=10)
    b = make_engine(2).uniform(size=10)
    assert not np.array_equal(a, b)


def test_make_engine_rejects_non_int():
    with pytest.raises(TypeError):
        make_engine("7")
    with pytest.raises(TypeError):
        make_engine(1.5)


def test_derive_run_seed_reproducible():
    assert derive_run_seed(1, "dtlz2:m3:nsga2:pp", 4) == \
        derive_run_seed(1, "dtlz2:m3:nsga2:pp", 4)


def test_derive_run_seed_separates_cells_and_runs():
    seeds = {
        derive_run_seed(1, "dtlz2:m3:nsga2:pp", 0),
        derive_run_seed(1, "dtlz2:m3:nsga2:pp", 1),
        derive_run_seed(1, "dtlz2:m3:nsga2:bp", 0),
        derive_run_seed(2, "dtlz2:m3:nsga2:pp", 0),
        derive_run_seed(1, "dtlz3:m3:nsga2:pp", 0),
    }
    assert len(seeds) == 5
