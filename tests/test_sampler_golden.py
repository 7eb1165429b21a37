"""Pinned digests of the farthest-point front samplers.

The replay golden campaign only reaches a short simplex completion, so the
greedy farthest-point loop is pinned here on its own: the thinned front
samples of DTLZ5, DTLZ6 and DTLZ7, and a simplex set that needs 30
completion picks, each also at the default ``pf_size`` of 10000, where the
pools are largest.  The digests were recorded from an earlier version of
the package, which recomputed every distance on every pick; a refactor or
speed-up of the samplers must leave them unchanged.
"""
import hashlib

import numpy as np
import pytest

from prefnorm.core import make_engine
from prefnorm.problems import get_problem
from prefnorm.weights import uniform_simplex_set


def _digest(points: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(points, dtype=float)
                          .tobytes()).hexdigest()


@pytest.mark.parametrize("name,m,digest", [
    ("dtlz5", 3,
     "0d219ac230055e7b2255c43eb62a1c8acc52a4f16f3b48dc8059056a8b375ea5"),
    ("dtlz6", 4,
     "147bbcbfe38ac399a0d14bcbd95d6cdf8fd38419a4e215b3be714877a88586eb"),
    ("dtlz7", 3,
     "be790aa7e829b8a4c0b649c86da7bd3938a6e0b0189132e993573ea17ee119b1"),
])
def test_front_sample_digest(name, m, digest):
    sample = get_problem(name, m).sample_pf(200, make_engine(1))
    assert sample.shape == (200, m)
    assert _digest(sample) == digest


def test_simplex_completion_digest():
    # 70 lattice points of 5 objectives, completed by 30 greedy picks
    weights = uniform_simplex_set(5, 100, make_engine(1))
    assert weights.shape == (100, 5)
    assert _digest(weights) == (
        "d9f3d5b6cf60d725f4e361b79ad481f9a77e51ca8b0a5f321fb1aa33786c1fd5")


@pytest.mark.parametrize("name,m,digest", [
    ("dtlz5", 3,
     "c16fce0cabdc0b71fbeab31144b922f70eb859440d5519503ec67b4eb08fc590"),
    ("dtlz7", 3,
     "ad2c916d3e7ab253f6d266db5157d90a26038c7f01a33bd26d74d83e7c4c3b4b"),
])
def test_default_size_front_sample_digest(name, m, digest):
    # 10000 picks from a 40000-row pool
    sample = get_problem(name, m).sample_pf(10000, make_engine(1))
    assert sample.shape == (10000, m)
    assert _digest(sample) == digest


def test_default_size_simplex_digest():
    # 8855 lattice points of 5 objectives, completed by 1145 greedy picks
    weights = uniform_simplex_set(5, 10000, make_engine(1))
    assert weights.shape == (10000, 5)
    assert _digest(weights) == (
        "4c5e9562522b6ddfb28c31d50883ee509ccf8ca3139ad0548fddc314fab02858")
