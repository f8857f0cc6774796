"""Draws that match :class:`random.Random`'s own, made with less work.

Generators draw subjects and string contents one byte at a time with
``rng.choice(population)`` or ``rng.randrange(lo, hi)``.  Both reduce to
``population[rng._randbelow(len(population))]``: CPython draws
``getrandbits(k)`` with ``k = n.bit_length()`` and rejects values
``>= n``, one 32-bit Mersenne Twister word per attempt.  For ``n`` up to
255, ``k`` is at most 8, so each attempt is the top ``k`` bits of one
word: :func:`draw_bytes` asks ``getrandbits`` for exactly as many words
as bytes still missing (never more than the one-at-a-time loop would
consume), keeps each word's top byte, and rejects and maps with one
``bytes.translate``.  The generator ends in the same state, so every
later draw, and every trace digest, is unchanged.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence


@lru_cache(maxsize=64)
def _tables(population: bytes) -> tuple[bytes, bytes]:
    """``(translation, rejected)`` top-byte tables for 1..255 bytes."""
    n = len(population)
    shift = 8 - n.bit_length()
    table = bytes(
        population[top >> shift] if top >> shift < n else 0 for top in range(256)
    )
    rejected = bytes(top for top in range(256) if top >> shift >= n)
    return table, rejected


def draw_bytes(rng: random.Random, population: bytes, count: int) -> bytes:
    """``bytes(rng.choice(population) for _ in range(count))``, in bulk.

    Makes the same draws, leaving ``rng`` in the same state.  Raises
    ``IndexError`` for an empty population, as ``choice`` does.
    """
    if count <= 0:
        return b""
    if not population:
        raise IndexError("Cannot choose from an empty sequence")
    if len(population) > 255:
        return bytes(rng.choice(population) for _ in range(count))
    table, rejected = _tables(bytes(population))
    out = b""
    while len(out) < count:
        need = count - len(out)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        # Each little-endian word's last byte holds its top 8 bits.
        out += words[3::4].translate(table, rejected)
    return out


def _randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for ``n >= 1``, drawn as CPython draws it."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def sample_pair(rng: random.Random, population: Sequence) -> tuple:
    """``tuple(rng.sample(population, 2))``, making the same draws.

    CPython draws a pair from a pool list when the population has at
    most 21 items and by rejecting repeats above that; both are
    reproduced here without ``sample``'s per-call set-up.
    """
    n = len(population)
    if n < 2:
        raise ValueError("Sample larger than population or is negative")
    first = _randbelow(rng, n)
    if n <= 21:
        # The pool moves its last item into the slot just drawn.
        second = _randbelow(rng, n - 1)
        if second == first:
            second = n - 1
    else:
        second = _randbelow(rng, n)
        while second == first:
            second = _randbelow(rng, n)
    return population[first], population[second]
