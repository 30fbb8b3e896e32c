"""Stream derivation: the word-array seeding of `derive_rng` draws exactly
what NumPy draws from the ``[seed, *tags]`` entropy list; the batched hash
gives each row NumPy's ``SeedSequence`` state; and a batch of streams of
mixed entropy lengths draws what `derive_rng` draws per (trial, tag)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iabsim.rng import (_states, _tag_to_int, derive_rng, stream,
                        trial_states)

# Word boundaries of SeedSequence's 32-bit split, and values past 2**64.
edge_ints = st.sampled_from((0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
                             2**64 + 1, 2**96 + 12345, 2**200 - 1))
ints = st.one_of(edge_ints, st.integers(0, 2**130))
tags = st.one_of(ints, st.text(max_size=12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=ints, tags=st.lists(tags, max_size=4))
@example(seed=0, tags=[])
@example(seed=2**32 - 1, tags=[0, "policy"])
@example(seed=2**32, tags=[2**32, "ue-positions"])
@example(seed=2**64 + 7, tags=[2**70, ""])
def test_draws_equal_the_entropy_list(seed, tags):
    expected = np.random.default_rng(
        np.random.SeedSequence([seed, *map(_tag_to_int, tags)]))
    got = derive_rng(seed, *tags)
    assert np.array_equal(got.integers(0, 2**63, 8, dtype=np.int64),
                          expected.integers(0, 2**63, 8, dtype=np.int64))
    assert got.random() == expected.random()


@pytest.mark.parametrize("seed, tags", [(-1, ()), (-(2**40), ("x",)),
                                        (3, (0, -1))])
def test_negative_entropy_raises(seed, tags):
    with pytest.raises(ValueError):
        derive_rng(seed, *tags)


words32 = st.one_of(st.sampled_from((0, 2**32 - 1)), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_words=st.integers(1, 8), data=st.data())
@example(n_words=1, data=None)
@example(n_words=8, data=None)
def test_batched_hash_equals_seed_sequence(n_words, data):
    # Every row of one batch, each word 0, 2**32 - 1 or any other.
    if data is None:
        rows = [[0] * n_words, [2**32 - 1] * n_words]
    else:
        rows = data.draw(st.lists(st.lists(words32, min_size=n_words,
                                           max_size=n_words),
                                  min_size=1, max_size=6))
    entropy = np.array(rows, dtype=np.uint32)
    got = _states(entropy)
    assert got.dtype == np.uint64 and got.shape == (len(rows), 4)
    for row, state in zip(entropy, got):
        expected = np.random.SeedSequence(row).generate_state(4, np.uint64)
        assert state.tobytes() == expected.tobytes()


# Seeds and trials on both sides of 2**32, so that one batch holds rows of
# several entropy lengths; tags of one and of two words, and of three.
wide_ints = st.sampled_from((0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.one_of(wide_ints, st.integers(0, 2**40)),
       trials=st.lists(st.one_of(wide_ints, st.integers(0, 2**36)),
                       min_size=1, max_size=5),
       tags=st.lists(st.one_of(st.sampled_from(("ue-positions", "policy")),
                               wide_ints, st.text(max_size=4)),
                     min_size=1, max_size=4))
@example(seed=2**32, trials=[0, 2**32, 5], tags=["rain", 7, 2**64 + 5])
def test_mixed_length_batch_draws_what_derive_rng_draws(seed, trials, tags):
    states = trial_states(seed, trials, tags)
    assert states.shape == (len(trials), len(tags), 4)
    for i, trial in enumerate(trials):
        for k, tag in enumerate(tags):
            got = stream(states[i, k]).integers(0, 2**63, 4, dtype=np.int64)
            assert np.array_equal(
                got, derive_rng(seed, trial, tag).integers(0, 2**63, 4,
                                                           dtype=np.int64))
            expected = np.random.default_rng(np.random.SeedSequence(
                [seed, trial, _tag_to_int(tag)]))
            assert np.array_equal(
                got, expected.integers(0, 2**63, 4, dtype=np.int64))


def test_a_stream_starts_anew_from_its_state():
    [[state]] = trial_states(3, [1], ["policy"])
    assert stream(state).random() == stream(state).random()


@pytest.mark.parametrize("seed, trials", [(-1, [0]), (3, [0, -2])])
def test_negative_seed_or_trial_raises(seed, trials):
    with pytest.raises(ValueError):
        trial_states(seed, trials, ["policy"])
