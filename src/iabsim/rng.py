"""Deterministic, purpose-tagged random number streams.

Every stochastic component draws from its own stream derived from
(seed, trial index, purpose tag), so trials can run in any order -- or
concurrently -- and still produce identical results.

A stream is ``Generator(PCG64(SeedSequence([seed, *tags])))``, each string
tag hashed to an int by ``_tag_to_int``. PCG64 reads nothing of its seed
sequence but ``generate_state(4, np.uint64)``; `stream` hands such a state
to PCG64 through NumPy's ``bit_generator.ISeedSequence`` interface, so it
draws what ``SeedSequence`` seeding draws, by construction.

The sweep points of an experiment derive the same (seed, trial) streams
again, so `trial_states` reads each trial's states from a memo of rows
(`_trial_row`), one ``SeedSequence`` per tag on a miss, its entropy handed
over as the uint32 words numpy would split the ``[seed, trial, tag]``
list into, which skips numpy's per-int split in Python. Its 400 rows cover
one experiment at defaults: 200 trials, each with the four build tags and
the ``policy`` tag. A row of K tags takes 32 K bytes plus about 0.3 kB, so
a memo of four-tag rows holds about 0.17 MB. Past the bound the least
recently used row is dropped, and hashed again when asked for.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def _tag_to_int(tag: str | int) -> int:
    if isinstance(tag, int):
        return tag
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words ``SeedSequence`` splits a
    non-negative int into, 0 into ``[0]``; a negative int raises
    ValueError."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


@lru_cache(maxsize=400)  # see the module docstring
def _trial_row(seed: int, trial: int, tags: tuple) -> np.ndarray:
    """(K, 4) uint64, read-only: ``SeedSequence([seed, trial,
    tag]).generate_state(4, np.uint64)`` of each tag, its entropy handed
    over as the uint32 words that list splits into. A negative seed or
    trial raises ValueError, and nothing is cached."""
    prefix = _words(seed) + _words(trial)
    row = np.empty((len(tags), 4), dtype=np.uint64)
    for k, tag in enumerate(tags):
        entropy = np.array(prefix + _words(_tag_to_int(tag)), dtype=np.uint32)
        row[k] = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    row.setflags(write=False)  # shared by every later call
    return row


class _Seeded(ISeedSequence):
    """A precomputed ``generate_state(4, np.uint64)``, all PCG64 reads."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed stream holds 4 uint64 words")
        return self.state


def stream(state: np.ndarray) -> np.random.Generator:
    """A fresh Generator of one state of `trial_states` (or of the state
    behind `derive_rng`): each call starts the stream anew."""
    return np.random.Generator(np.random.PCG64(_Seeded(state)))


def trial_states(seed: int, trials: Sequence[int],
                 tags: Sequence[str | int]) -> np.ndarray:
    """(T, K, 4) uint64: the state of the stream ``derive_rng(seed, trial,
    tag)`` of every trial and tag, each trial's row from the memo (see the
    module docstring); `stream` makes each Generator. The array is the
    caller's own. A negative seed or trial raises ValueError."""
    seed, tags = int(seed), tuple(tags)
    out = np.empty((len(trials), len(tags), 4), dtype=np.uint64)
    for i, trial in enumerate(trials):
        out[i] = _trial_row(seed, int(trial), tags)
    return out


def derive_rng(seed: int, *tags: str | int) -> np.random.Generator:
    """Return a Generator keyed by (seed, *tags).

    Tags may be ints (e.g. a trial index) or strings naming the purpose
    ("ue-positions", "fading", ...). The same (seed, tags) always yields
    the same stream, independent of any other stream's consumption. A
    negative seed or int tag raises ValueError.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [int(seed), *map(_tag_to_int, tags)])))
