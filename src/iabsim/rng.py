"""Deterministic, purpose-tagged random number streams.

Every stochastic component draws from its own stream derived from
(seed, trial index, purpose tag), so trials can run in any order -- or
concurrently -- and still produce identical results.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np


# Pure, and every trial hashes the same few purpose tags again: cached.
@lru_cache(maxsize=None)
def _tag_to_int(tag: str | int) -> int:
    if isinstance(tag, int):
        return tag
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, *tags: str | int) -> np.random.Generator:
    """Return a Generator keyed by (seed, *tags).

    Tags may be ints (e.g. a trial index) or strings naming the purpose
    ("ue-positions", "fading", ...). The same (seed, tags) always yields
    the same stream, independent of any other stream's consumption.
    """
    entropy = [int(seed)] + [_tag_to_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))
