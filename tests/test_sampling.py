"""derive_states against its oracle derive_rng: the seed words of a block of
counters, set on a generator by _seed, give every counter's stream the state
its own derive_rng generator starts in, exactly."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracheck.sampling import _halves, _seed, derive_rng, derive_states

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


def _numpy_half(bitgen):
    """The 32-bit half numpy's next_uint32 holds buffered in bitgen, None when it holds none."""
    state = bitgen.state
    return state["uinteger"] if state["has_uint32"] else None


# (kind, size, n or with_signs): integers(0, n, size) with size None for a scalar, integers(0, 2, k),
# random(m) alone or followed by integers(0, 2, m), standard_normal(m)
_DRAWS = st.one_of(st.tuples(st.just("integers"), st.none() | st.integers(1, 40), st.integers(2, 64)),
                   st.tuples(st.just("signs"), st.integers(1, 40), st.just(2)),
                   st.tuples(st.just("random"), st.integers(0, 40), st.booleans()),
                   st.tuples(st.just("normal"), st.integers(1, 40), st.none()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), draws=st.lists(_DRAWS, min_size=1, max_size=12))
def test_halves_draw_numpys_integers(seed, draws):
    """Generator.integers(0, n) and integers(0, n, k), integers(0, 2, k), random(m) (alone, or
    followed by integers(0, 2, m) as _draw_block reads a block's weights and signs, in one
    random_raw call) and standard_normal(m), interleaved on one generator: _halves on a twin
    generator gives the same values, and after every draw it holds the half numpy's next_uint32
    holds buffered, and the twin's PCG64 state is numpy's.  The twin's own buffer stays empty."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    half = None
    for kind, size, arg in draws:
        if kind == "integers":
            want = np.atleast_1d(rng.integers(0, arg, size)).tolist()
            _, halves, half = _halves(twin.bit_generator, arg, size or 1, half)
            assert want == [h * arg >> 32 for h in halves], (kind, size, arg)
        elif kind == "signs":
            want = rng.integers(0, 2, size).tolist()
            _, halves, half = _halves(twin.bit_generator, 2, size, half)
            assert want == [h >> 31 for h in halves], (kind, size)
        elif kind == "random":
            count = size if arg else 0
            weights, signs = rng.random(size), rng.integers(0, 2, count).tolist()
            words, halves, half = _halves(twin.bit_generator, 2, count, half, lead=size)
            assert weights.tobytes() == ((np.array(words, dtype=np.uint64) >> 11) * 2.0 ** -53).tobytes()
            assert signs == [h >> 31 for h in halves], (kind, size, arg)
        else:
            assert rng.standard_normal(size).tobytes() == twin.standard_normal(size).tobytes()
        assert half == _numpy_half(rng.bit_generator), (kind, size, arg)
        assert rng.bit_generator.state["state"] == twin.bit_generator.state["state"], (kind, size, arg)
    assert _numpy_half(twin.bit_generator) is None


class _FakeWords:
    """A bit generator whose raw words are the given ones, in order."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size=None):
        if size is None:
            return self.words.pop(0)
        taken, self.words = self.words[:size], self.words[size:]
        return np.array(taken, dtype=np.uint64)


def test_halves_rejects_as_lemire():
    """Lemire's rejection on a made-up word source.  At n = 3 the threshold is 2**32 mod 3 = 1,
    so a half h is rejected exactly when h = 0: the next half is read, from a new word once the
    fetched ones run out, and the half after the accepted one stays buffered.  A real stream
    rejects a half with chance about n / 2**32, so no feasible sample of one reaches this branch,
    and the hypothesis test above never does."""
    lead, zeros, word = 0x1234_5678_9ABC_DEF0, 0, 7 << 32 | 0x8000_0000
    source = _FakeWords([lead, zeros, word])
    assert _halves(source, 3, 1, None, lead=1) == ([lead], [0x8000_0000], 7)   # both zero halves rejected
    assert source.words == []
    source = _FakeWords([5 << 32])
    assert _halves(source, 3, 1, 0) == ([], [5], None)   # the buffered zero, then the new word's low half, rejected
    source = _FakeWords([9 << 32 | 4, 6])
    assert _halves(source, 3, 2, 0) == ([], [4, 9], None)   # a new word only once the fetched halves run out
    assert source.words == [6]
    assert _halves(_FakeWords([0, 0, 1]), 2, 3, None) == ([], [0, 0, 0], 0)   # n = 2 rejects nothing
