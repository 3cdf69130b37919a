"""derive_states against its oracle derive_rng: the seed words of a block of
counters, set on a generator by _seed, give every counter's stream the state
its own derive_rng generator starts in, exactly."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracheck.sampling import _seed, derive_rng, derive_states

KEYS = [("vectors",), ("synthetic-gauss", 2), ("synthetic-gauss", 0, 5), ("E1", "points", 7, 2 ** 40 + 3),
        (1, "a", 2, "b", 3)]


def _quiet_states(seed, keys, counters):
    """derive_states with every numpy warning (an overflow, say) an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return derive_states(seed, *keys, counters=counters)


def _assert_seeds_streams(rows, seed, keys, counters):
    bitgen = np.random.PCG64(0)
    for t, row in zip(counters, rows):
        _seed(bitgen, row)
        assert bitgen.state == derive_rng(seed, *keys, t).bit_generator.state, t


@pytest.mark.parametrize("keys", KEYS, ids=[f"{len(k)}-key" for k in KEYS])
@pytest.mark.parametrize("seed", [0, 42, 2 ** 32 + 5, -1])
def test_states_seed_the_streams_of_derive_rng(seed, keys):
    """Counters 0-999, drawn in two blocks split at 606 (a draw block of the
    synthetic suite at n = 3) and in one: both give the same rows, and each
    row seeds its counter's stream."""
    rows = np.concatenate([_quiet_states(seed, keys, range(0, 606)), _quiet_states(seed, keys, range(606, 1000))])
    assert rows.dtype == np.uint64 and rows.shape == (1000, 4)
    assert np.array_equal(rows, _quiet_states(seed, keys, range(1000)))
    _assert_seeds_streams(rows, seed, keys, range(1000))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-2 ** 63, 2 ** 64),
       keys=st.lists(st.one_of(st.integers(-2 ** 40, 2 ** 64),
                               st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)), max_size=5),
       start=st.integers(-2 ** 33, 2 ** 33), size=st.integers(1, 6))
def test_states_seed_random_streams(seed, keys, start, size):
    """Any seed, 0 to 5 string or integer keys of any size, and counters
    beyond 32 bits or negative, which derive_rng masks to their low word."""
    counters = range(start, start + size)
    _assert_seeds_streams(_quiet_states(seed, keys, counters), seed, keys, counters)
