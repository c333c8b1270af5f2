"""Seed derivation: integer seeds are laid out from the stream's state."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ndilemma.seeding import SEED_SPACE, derive_seed, seed_sequence


@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**32 - 1), max_size=3))
def test_derived_seed_is_the_first_two_state_words(master, key):
    """The high word fills bits 32-63 and the low word bits 0-31, with no
    overlap, reduced into ``SEED_SPACE``."""
    high, low = seed_sequence(master, *key).generate_state(2, dtype=np.uint32)
    assert derive_seed(master, *key) == (int(high) * 2**32 + int(low)) % SEED_SPACE


def test_derived_seeds_are_in_seed_space_and_distinct():
    seeds = [derive_seed(7, run) for run in range(1000)]
    assert all(0 <= seed < SEED_SPACE for seed in seeds)
    assert len(set(seeds)) == len(seeds)
