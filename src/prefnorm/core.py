"""Shared primitives: the random engine and per-run seed derivation."""
from __future__ import annotations

import zlib

import numpy as np


def make_engine(seed: int) -> np.random.Generator:
    """Create the project-wide random engine (PCG64) from a 64-bit seed."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def derive_run_seed(base_seed: int, cell_id: str, run_index: int) -> int:
    """Derive a stable 64-bit seed for one run of one experiment cell.

    The derivation only depends on the base seed, the cell identity string and
    the run index, so adding or removing other cells never changes it.
    """
    tag = zlib.crc32(cell_id.encode("utf-8"))
    ss = np.random.SeedSequence([int(base_seed), int(tag), int(run_index)])
    return int(ss.generate_state(1, np.uint64)[0])
