"""numpy's SeedSequence and PCG64, copied in int and uint32-array arithmetic.

The sampler seeds its per-row streams from these (_pool, _child_streams, _jump), and
`gipower verify` draws from _Uniforms, which needs no numpy.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import pairwise

from ._lazy import np
from .exceptions import InvalidStateError

# numpy's SeedSequence hash constants and PCG64's multiplier: child streams are
# seeded with the (state, inc) that PCG64 gets from child i of SeedSequence(seed),
# and _Uniforms(seed) with default_rng(seed)'s.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hash_constants(h: int, multiplier: int, count: int) -> list[int]:
    """SeedSequence's hash constant h and the count after it, each the last times multiplier."""
    constants = [h]
    for _ in range(count):
        constants.append(constants[-1] * multiplier & _MASK32)
    return constants


def _hashmix(value, h, h_next):
    """SeedSequence's hashmix of value between hash constants h and h_next.

    On ints, and on uint32 arrays, whose products wrap mod 2**32 as numpy's do.
    """
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool words: ints, or uint32 arrays."""
    value = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return value ^ value >> 16


def _pool(seed: int) -> tuple[list[int], list[tuple[int, int]]]:
    """SeedSequence(seed)'s pool, ints, and the pairs of hash constants that follow its mix.

    numpy mixes the seed's uint32 words (little-endian, zero-padded to the pool size 4)
    into the pool, each word hashmix by the next pair of hash constants.  Child i of
    SeedSequence(seed), for i < 2**32, has the spawn key word i after those words, so its
    pool is this one with i mixed into pool word k by the k-th pair returned.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise InvalidStateError("expected non-negative integer")  # numpy's message
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pairs = pairwise(_hash_constants(_INIT_A, _MULT_A, 4 * len(words) + 4))

    def hashmix(value):
        return _hashmix(value, *next(pairs))

    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool, list(pairs)


def _state_words(pool) -> list:
    """generate_state(8, uint32) of a SeedSequence pool of four int words."""
    b = _hash_constants(_INIT_B, _MULT_B, 8)
    return [_hashmix(pool[i % 4], b[i], b[i + 1]) for i in range(8)]


def _srandom(s0: int, s1: int, s2: int, s3: int) -> tuple[int, int]:
    """PCG64's (state, inc) from generate_state(4, uint64)'s words: srandom reads (s0 s1, s2 s3)."""
    inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc


def _child_streams(mixed, first: int, count: int):
    """PCG64 (states, incs), lists of ints, of the children first .. first + count - 1 of
    SeedSequence(seed), as PCG64 seeds itself from the children numpy spawns.

    mixed is _pool(seed), computed once per seed by the caller.  Each child's index is
    mixed into its four pool words in one (4, count) uint32 pass, and its eight state
    words are formed as _state_words forms them in one (8, count) pass; srandom then runs
    per child on ints.  Indices must be below 2**32, one word.
    """
    pool, pairs = mixed
    h, h_next = np.array(pairs[:4], dtype=np.uint32).T[:, :, None]
    index = np.arange(first, first + count, dtype=np.uint32)
    words = _mix(np.array(pool, dtype=np.uint32)[:, None], _hashmix(index, h, h_next))
    b = np.array(_hash_constants(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]
    words = _hashmix(np.concatenate((words, words)), b[:-1], b[1:])  # word i hashes pool word i % 4
    states, incs = [], []
    # generate_state(4, uint64) pairs words little-endian
    for s in np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist():
        state, inc = _srandom(*s)
        states.append(state)
        incs.append(inc)
    return states, incs


class _Uniforms:
    """default_rng(seed).random's doubles by int arithmetic, without numpy.

    PCG64 seeded from _pool(seed) by _state_words, its words paired
    little-endian, and srandom, as for _child_streams.  Each double steps PCG64 and takes its XSL-RR output x
    as (x >> 11) 2**-53.  seed must be a non-negative int.
    """

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        w = _state_words(_pool(seed)[0])
        self.state, self.inc = _srandom(*(w[i] | w[i + 1] << 32 for i in range(0, 8, 2)))

    def __call__(self, k: int) -> list[float]:
        """The next k doubles: default_rng(seed).random(k).tolist() at the same point."""
        state, inc, out = self.state, self.inc, []
        for _ in range(k):
            state = (state * _PCG_MULT + inc) & _MASK128
            word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
            out.append((((word >> rot | word << 64 - rot) & _MASK64) >> 11) * 2.0**-53)
        self.state = state
        return out


@lru_cache
def _jump(steps: int) -> tuple[int, int]:
    """(A, C) with PCG64's state after `steps` steps from s equal to (A s + C inc) mod 2**128,
    by squaring: (m, k), the map s -> m s + k inc of 2**i steps, joins (A, C) where bit i of steps is 1."""
    a, c, m, k = 1, 0, _PCG_MULT, 1
    while steps:
        if steps & 1:
            a, c = a * m & _MASK128, (c * m + k) & _MASK128
        m, k, steps = m * m & _MASK128, k * (m + 1) & _MASK128, steps >> 1
    return a, c
