"""Deterministic sampling of chart points and test vectors.

All randomness in a run flows from one master seed: every consumer derives
its own counter-mode stream from (seed, purpose keys), so identical configs
reproduce byte-identical reports regardless of evaluation order.

derive_rng defines a stream.  derive_states gives the seed words of the
streams of many counters in one vectorized pass, and _seed sets a reused
PCG64 to the state derive_rng's generator starts in.  _halves reads
Generator.integers from PCG64's raw words: the 32-bit halves numpy's
next_uint32 takes, low half first with the high half buffered, mapped to
[0, n) by Lemire's rule (Lemire, ACM TOMACS 29(1), 2019).
"""

from __future__ import annotations

import itertools
import zlib
from typing import Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
SEED_MAX = _MASK32   # a stream keeps its seed's low 32 bits, so a run takes seeds in 0..SEED_MAX only
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence constants (pool size 4, 16-bit xorshift) and PCG64's multiplier
_INIT_A, _MULT_A, _MIX_MULT_L, _MIX_MULT_R = 0x43b0d7e5, 0x931e8875, 0xca01f9dd, 0x4973f715
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy(seed: int, keys: tuple[str | int, ...]) -> list[int]:
    return [int(seed) & _MASK32] + [k & _MASK32 if isinstance(k, int) else zlib.crc32(str(k).encode())
                                    for k in keys]


def derive_rng(seed: int, *keys: str | int) -> np.random.Generator:
    """Independent generator for (seed, *keys); stable across runs."""
    return np.random.default_rng(_entropy(seed, keys))


def derive_states(seed: int, *keys: str | int, counters: range) -> np.ndarray:
    """(len(counters), 4) uint64: row i holds SeedSequence(entropy).generate_state(4, np.uint64),
    the words that seed derive_rng(seed, *keys, counters[i]), by numpy's hash on uint64 arrays
    masked to 32 bits."""
    t = np.arange(counters.start, counters.stop, counters.step).astype(np.uint64) & _MASK32
    words = [np.full_like(t, w) for w in _entropy(seed, keys)] + [t]
    consts = [_INIT_A]

    def hashmix(value: np.ndarray, mult: int = _MULT_A) -> np.ndarray:
        value = value ^ consts[-1]
        consts.append(consts[-1] * mult & _MASK32)
        value = value * consts[-1] & _MASK32
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:   # L x - R y mod 2^32, never negative
        r = ((_MIX_MULT_L * x & _MASK32) + (_MASK32 + 1) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in (words + [np.zeros_like(t)] * 4)[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w, dst in itertools.product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(w))
    consts.append(_INIT_B)
    half = [hashmix(pool[i % 4], _MULT_B) for i in range(8)]
    return np.stack([half[i] | half[i + 1] << np.uint64(32) for i in range(0, 8, 2)], axis=1)


def _seed(bitgen: np.random.PCG64, words: np.ndarray) -> None:
    """Set bitgen to the state PCG64 seeded with these words starts in: inc = 2 (w2, w3) + 1,
    state (inc + (w0, w1)) MULT + inc, no buffered 32-bit half."""
    w0, w1, w2, w3 = words.tolist()
    inc = (((w2 << 64) | w3) << 1 | 1) & _MASK128
    state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}


def _halves(bitgen: np.random.PCG64, n: int, count: int, half: int | None,
            lead: int = 0) -> tuple[list[int], list[int], int | None]:
    """The 32-bit halves behind Generator.integers(0, n, count), for 2 <= n <= 2**32, read from
    bitgen's raw words as numpy reads them, after `lead` raw words that come back as they are, all
    in one random_raw call.  numpy's next_uint32 hands out each word low half first and buffers the
    high half (`half` on entry and on return, None when there is none).  Lemire's rule rejects a
    half h while (h n) mod 2**32 < 2**32 mod n, which never happens when n is a power of two, and
    an accepted half gives the value (h n) >> 32.  Returns the lead words, the `count` accepted
    halves and the half left buffered.  The buffered half lives here, never in bitgen's state:
    random(), standard_normal() and the like neither read it nor clear it."""
    size = lead + (count - (half is not None) + 1) // 2
    words = bitgen.random_raw(size).tolist()
    halves = [] if half is None else [half]
    for w in words[lead:]:
        halves += (w & _MASK32, w >> 32)
    threshold, i = (1 << 32) % n, 0
    while threshold and i < count:
        if halves[i] * n & _MASK32 < threshold:
            del halves[i]
            if len(halves) < count:
                w = bitgen.random_raw()
                halves += (w & _MASK32, w >> 32)
        else:
            i += 1
    return words[:lead], halves[:count], halves[count] if len(halves) > count else None


def sample_points(domain: Sequence[tuple[float, float]], count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in the domain box, sorted lexicographically so that
    downstream reductions are order-independent."""
    lo = np.array([d[0] for d in domain])
    hi = np.array([d[1] for d in domain])
    pts = rng.uniform(lo, hi, size=(count, len(domain)))
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def random_vectors(rng: np.random.Generator, npoints: int, nvectors: int, dim: int) -> np.ndarray:
    """Components uniform in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, size=(npoints, nvectors, dim))
