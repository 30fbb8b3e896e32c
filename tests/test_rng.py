"""Stream derivation: `derive_rng` draws exactly what NumPy draws from the
``[seed, *tags]`` entropy list; a batch of streams of mixed entropy
lengths draws what `derive_rng` and ``SeedSequence`` draw per (trial,
tag); and the per-trial memo behind `trial_states` hands out the same
states warm as cold, never shares a writable array, and caches no row of
a call that raised."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iabsim.rng import (_tag_to_int, _trial_row, derive_rng, stream,
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


# Seeds and trials on both sides of 2**32, so that one call holds rows of
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**40),
       calls=st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=6),
                      min_size=1, max_size=4),
       tags=st.lists(st.sampled_from(("ue-positions", "rain", "policy", 7)),
                     min_size=1, max_size=3))
@example(seed=1, calls=[[0, 1, 2], [2, 1, 0], [1, 3], [3, 3, 0]],
         tags=["ue-positions", "rain"])
def test_warm_states_equal_cold_states(seed, calls, tags):
    # Overlapping and reordered trial lists: every call after the first
    # hits rows that an earlier call cached.
    _trial_row.cache_clear()
    warm = [trial_states(seed, trials, tags) for trials in calls]
    for trials, got in zip(calls, warm):
        _trial_row.cache_clear()
        assert got.tobytes() == trial_states(seed, trials, tags).tobytes()


@pytest.mark.parametrize("trials", [[0, 1], [1]])
def test_returned_states_are_the_callers_own(trials):
    _trial_row.cache_clear()
    first = trial_states(5, trials, ["policy", "rain"])
    expected = first.copy()
    assert first.flags.writeable
    first[...] = 0
    again = trial_states(5, trials[::-1] + trials, ["policy", "rain"])
    assert again.tobytes() == np.concatenate((expected[::-1],
                                              expected)).tobytes()
    assert _trial_row.cache_info().hits == 2 * len(trials)


def test_memo_rows_are_read_only():
    row = _trial_row(5, 0, ("policy", "rain"))
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0, 0] = 0
    assert row is _trial_row(5, 0, ("policy", "rain"))


@pytest.mark.parametrize("seed, trials, cached", [(-1, [0], 0),
                                                  (3, [-2], 0),
                                                  (3, [0, -2], 1)])
def test_negative_entropy_caches_no_row(seed, trials, cached):
    # Only rows of non-negative entropy derived before the error stay.
    _trial_row.cache_clear()
    with pytest.raises(ValueError):
        trial_states(seed, trials, ["policy"])
    assert _trial_row.cache_info().currsize == cached
