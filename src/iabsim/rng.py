"""Deterministic, purpose-tagged random number streams.

Every stochastic component draws from its own stream derived from
(seed, trial index, purpose tag), so trials can run in any order -- or
concurrently -- and still produce identical results.

A stream's entropy is the list ``[seed, *tags]``, each string tag hashed to
an int by ``_tag_to_int``. NumPy's ``SeedSequence`` reads such a list by
splitting each int into 32-bit words, least significant first (0 is the one
word 0), and concatenating the words. ``derive_rng`` hands it that word
array directly, as ``uint32``: the pool, and so the stream, is the same as
for the list, without NumPy coercing each int on every call. Each tag's
words are computed once.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK32 = 0xFFFF_FFFF


def _tag_to_int(tag: str | int) -> int:
    if isinstance(tag, int):
        return tag
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _words(n: int) -> list[int]:
    """``n`` as 32-bit words, least significant first, as SeedSequence
    splits an int of its entropy."""
    if n < 0:
        raise ValueError(f"seed entropy must be non-negative, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


# Pure, and every trial derives its streams from the same few tags: cached.
@lru_cache(maxsize=None)
def _tag_words(tag: str | int) -> tuple[int, ...]:
    return tuple(_words(_tag_to_int(tag)))


def derive_rng(seed: int, *tags: str | int) -> np.random.Generator:
    """Return a Generator keyed by (seed, *tags).

    Tags may be ints (e.g. a trial index) or strings naming the purpose
    ("ue-positions", "fading", ...). The same (seed, tags) always yields
    the same stream, independent of any other stream's consumption. A
    negative seed or int tag raises ValueError.
    """
    words = _words(int(seed))
    for tag in tags:
        words.extend(_tag_words(tag))
    entropy = np.array(words, dtype=np.uint32)
    # `default_rng` of a SeedSequence is this Generator, less its argument
    # checks.
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy)))
