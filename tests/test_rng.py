"""Stream derivation: the word-array seeding of `derive_rng` draws exactly
what NumPy draws from the ``[seed, *tags]`` entropy list."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iabsim.rng import _tag_to_int, derive_rng

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
