"""Deterministic, purpose-tagged random number streams.

Every stochastic component draws from its own stream derived from
(seed, trial index, purpose tag), so trials can run in any order -- or
concurrently -- and still produce identical results.

A stream's entropy is the list ``[seed, *tags]``, each string tag hashed to
an int by ``_tag_to_int``. NumPy's ``SeedSequence`` reads such a list by
splitting each int into 32-bit words, least significant first (0 is the one
word 0), and concatenating the words. Each tag's words are computed once.

The batch-hash contract. A stream draws what
``Generator(PCG64(SeedSequence(entropy)))`` draws, and PCG64 reads nothing
of its seed sequence but ``generate_state(4, np.uint64)``. `_states` computes that
state for a whole ``(N, L)`` matrix of entropy words at once: the same
uint32 arithmetic as ``SeedSequence.mix_entropy`` on its pool of four
words, then ``generate_state``, each step one numpy operation over the N
rows. The hash constants of each call depend only on the number of words
L, so they are built once per L (`_hash_constants`). `stream` hands a
state to PCG64 through NumPy's documented ``bit_generator.ISeedSequence``
interface, whose one method, ``generate_state``, returns the state as
given. So a stream draws what ``SeedSequence`` seeding draws, bit for bit,
however many streams share the batch. `trial_states` derives the streams
of many (trial, tag) pairs in one batch, grouping the rows by L;
`derive_rng` is the one-row call.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFF_FFFF
# SeedSequence's pool size and hash constants (O'Neill's seed_seq hash).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L = np.array(0xCA01F9DD, dtype=np.uint32)
_MIX_R = np.array(0x4973F715, dtype=np.uint32)
_XSHIFT = np.array(16, dtype=np.uint32)


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


def _sequence(init: int, mult: int, n: int) -> np.ndarray:
    """The ``n + 1`` values a hash constant takes over ``n`` calls: it
    starts at ``init`` and is multiplied by ``mult`` after each use."""
    values = [init]
    for _ in range(n):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


@lru_cache(maxsize=None)
def _hash_constants(n_words: int) -> tuple[np.ndarray, ...]:
    """The constants of ``mix_entropy`` on ``n_words`` words and of
    ``generate_state(4, np.uint64)``, as (rows, 1) columns, one row per
    pool word a call hashes into. A hashmix call XORs its value with the
    constant, advances the constant and multiplies by the new one.

    ``mix_entropy`` hashes the pool's four words in order, then for each
    source word every other destination word (``cross``: one (4, 1) block
    per source, its own row unused), then each word past the fourth into
    the four destinations (``extra``)."""
    n_extra = max(n_words - _POOL, 0)
    a = _sequence(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * n_extra)
    xor, mult = a[:-1], a[1:]
    first = (xor[:_POOL], mult[:_POOL])
    # The cross calls in source-major order skip each source's own row: a
    # 0 there, unused.
    at = np.zeros((_POOL, _POOL), dtype=np.intp)
    at[~np.eye(_POOL, dtype=bool)] = np.arange(_POOL, _POOL * _POOL)
    cross = (xor[at], mult[at])
    tail = slice(_POOL * _POOL, None)
    extra = (xor[tail].reshape(n_extra, _POOL, 1),
             mult[tail].reshape(n_extra, _POOL, 1))
    b = _sequence(_INIT_B, _MULT_B, 2 * _POOL)
    state = (b[:-1], b[1:])
    for array in (*first, *cross, *extra, *state):  # shared: read-only
        array.setflags(write=False)
    return first, cross, extra, state


def _xorshift(values: np.ndarray, tmp: np.ndarray) -> None:
    """``values ^= values >> 16`` in place, through ``tmp``."""
    values ^= np.right_shift(values, _XSHIFT, out=tmp)


def _mix(pool: np.ndarray, hashed: np.ndarray, tmp: np.ndarray) -> None:
    """SeedSequence's ``mix(pool, hashed)`` in place; ``hashed`` is
    already multiplied by its right-hand constant."""
    pool *= _MIX_L
    pool -= hashed
    _xorshift(pool, tmp)


def _states(entropy: np.ndarray) -> np.ndarray:
    """(N, 4) uint64: ``SeedSequence(row).generate_state(4, np.uint64)``
    of each row of an (N, L) uint32 entropy matrix, L >= 1. The uint32
    products and differences wrap modulo 2**32, as in SeedSequence."""
    n_rows, n_words = entropy.shape
    first, cross, extra, state = _hash_constants(n_words)
    words = entropy.T  # (L, N): one row per word
    pool = np.zeros((_POOL, n_rows), dtype=np.uint32)
    pool[:min(n_words, _POOL)] = words[:_POOL]
    tmp, hashed = np.empty_like(pool), np.empty_like(pool)
    pool ^= first[0]
    pool *= first[1]
    _xorshift(pool, tmp)
    # Each source word into every other word: all four rows are mixed,
    # then the source's own row is put back.
    for src in range(_POOL):
        np.bitwise_xor(pool[src], cross[0][src], out=hashed)
        hashed *= cross[1][src]
        _xorshift(hashed, tmp)
        hashed *= _MIX_R
        kept = pool[src].copy()
        _mix(pool, hashed, tmp)
        pool[src] = kept
    if n_words > _POOL:
        later = np.bitwise_xor(words[_POOL:, None, :], extra[0])
        later *= extra[1]
        later ^= later >> _XSHIFT
        later *= _MIX_R
        for row in later:
            _mix(pool, row, tmp)
    out = np.concatenate((pool, pool))
    out ^= state[0]
    out *= state[1]
    out ^= out >> _XSHIFT
    # Pairs of words, low first, as generate_state reads them.
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(
        np.uint64)


class _Seeded(ISeedSequence):
    """A precomputed ``generate_state(4, np.uint64)``, the one request
    PCG64 makes of its seed sequence."""

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
    tag)`` of every trial and tag, in one batch (see the module
    docstring); `stream` makes each Generator. A negative seed or trial
    raises ValueError."""
    head = _words(int(seed))
    out = np.empty((len(trials), len(tags), 4), dtype=np.uint64)
    # The rows are grouped by length: a trial or tag of 2**32 or more has
    # more than one word.
    by_trial: dict[int, list] = {}
    for i, trial in enumerate(trials):
        words = _words(int(trial))
        by_trial.setdefault(len(words), []).append((i, words))
    by_tag: dict[int, list] = {}
    for k, tag in enumerate(tags):
        words = _tag_words(tag)
        by_tag.setdefault(len(words), []).append((k, words))
    for trial_len, trial_rows in by_trial.items():
        rows, trial_words = zip(*trial_rows)
        for tag_len, tag_rows in by_tag.items():
            cols, tag_words = zip(*tag_rows)
            entropy = np.empty((len(rows), len(cols),
                                len(head) + trial_len + tag_len),
                               dtype=np.uint32)
            entropy[:, :, :len(head)] = head
            entropy[:, :, len(head):-tag_len] = np.array(
                [w for words in trial_words for w in words],
                dtype=np.uint32).reshape(len(rows), 1, trial_len)
            entropy[:, :, -tag_len:] = tag_words
            states = _states(entropy.reshape(-1, entropy.shape[2])).reshape(
                len(rows), len(cols), 4)
            if len(by_trial) == len(by_tag) == 1:
                return states
            out[np.ix_(rows, cols)] = states
    return out


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
    return stream(_states(np.array([words], dtype=np.uint32))[0])
