"""
Uniform draws and random gates on the standard library alone.

``PCG64(seed).random()`` yields the same doubles as
``numpy.random.default_rng(seed).random()``: numpy seeds its PCG64 bit
generator through ``SeedSequence``, whose hash is written out below, and
then steps a 128-bit linear congruential generator whose state it turns
into 64 output bits by the XSL-RR permutation (O'Neill, "PCG: a family of
simple fast space-efficient statistically good algorithms for random
number generation", 2014). A double is the top 53 of those bits times
2**-53. So the CLI can draw a seeded stream without importing numpy, and a
library caller's numpy ``Generator`` gives the same gates from the same
seed.

``unitary(random)`` builds one random single-qubit gate from four calls of
any ``random()``.
"""
from __future__ import annotations

import math
from typing import Callable

_MASK32 = 0xFFFFFFFF
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# The 128-bit multiplier of PCG64's LCG step.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

_TWO_PI = 2.0 * math.pi


def _seed_words(seed: int) -> list[int]:
    """The seed as 32-bit words, least significant first; 0 is one word."""
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as Python ints."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    entropy = _seed_words(seed)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    out_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ out_const
        out_const = (out_const * _MULT_B) & _MASK32
        value = (value * out_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """numpy's ``default_rng(seed)`` stream of uniform doubles on [0, 1)."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128

    def random(self) -> float:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        word = ((state >> 64) ^ state) & _MASK64
        # The top 53 bits of word rotated right by the top 6 bits of state.
        top = (word << 64 | word) >> ((state >> 122) + 11) & _MASK53
        return top * 1.1102230246251565e-16    # 2**-53


def unitary(random: Callable[[], float]) -> tuple[complex, complex, complex, complex]:
    """Entries (u11, u12, u21, u22) of exp(i d) diag(exp(i a), 1) R diag(exp(i b), 1).

    R has rows (cos t, -sin t; sin t, cos t) with sin t = sqrt(u) and
    cos t = sqrt(1 - u), which is t = arcsin(sqrt(u)) without the inverse
    and forward sines: ``1 - u`` is exact for a double on [0, 1) and both
    roots are correctly rounded. The draws are taken in the order u, a, b,
    d, with u uniform on [0, 1) and each phase 2 pi times a uniform.
    """
    u = random()
    a, b, d = _TWO_PI * random(), _TWO_PI * random(), _TWO_PI * random()
    sin, cos = math.sqrt(u), math.sqrt(1.0 - u)
    ea = complex(math.cos(a), math.sin(a))
    eb = complex(math.cos(b), math.sin(b))
    ed = complex(math.cos(d), math.sin(d))
    return (ed * (ea * cos * eb), ed * (ea * -sin), ed * (sin * eb), ed * cos)
