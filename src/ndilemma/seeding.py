"""Deterministic random-stream derivation.

Every random decision in the package flows from a single master seed. Child
streams are derived with ``numpy.random.SeedSequence`` spawn keys, so a task's
stream depends only on the master seed and the task's address (for example
a grid cell's ``(group_size, n_e)`` or a run index), never on the order in
which tasks are played.
"""

from __future__ import annotations

import numpy as np

# Upper bound (exclusive) for integer seeds handed to external surfaces.
SEED_SPACE = 2**63


def seed_sequence(master: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence for the stream addressed by ``key`` under ``master``."""
    return np.random.SeedSequence(entropy=master, spawn_key=tuple(key))


def rng_for(master: int, *key: int) -> np.random.Generator:
    """Generator for the stream addressed by ``key`` under ``master``."""
    return np.random.default_rng(seed_sequence(master, *key))


def derive_seed(master: int, *key: int) -> int:
    """A plain integer seed derived from (master, key), for storage or logs:
    the stream's first two 32-bit state words, high word first."""
    state = seed_sequence(master, *key).generate_state(2, dtype=np.uint32)
    return (int(state[0]) << 32 | int(state[1])) % SEED_SPACE
