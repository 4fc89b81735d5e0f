"""Contract tests: every Sparsifier implementation honours the interface."""

import numpy as np
import pytest

from repro.compression import (
    AdaptiveThresholdSparsifier,
    RandomKSparsifier,
    TopKSparsifier,
)

SPARSIFIERS = [
    pytest.param(lambda: TopKSparsifier(0.1, min_sparse_size=0), id="topk"),
    pytest.param(lambda: RandomKSparsifier(0.1, seed=0), id="randomk"),
    pytest.param(
        lambda: AdaptiveThresholdSparsifier(0.1, min_sparse_size=0), id="adaptive"
    ),
]


@pytest.mark.parametrize("make", SPARSIFIERS)
class TestSparsifierContract:
    def test_mask_is_boolean_same_shape(self, make, rng):
        sp = make()
        arr = rng.normal(size=(6, 8))
        mask = sp.mask(arr)
        assert mask.dtype == bool
        assert mask.shape == arr.shape

    def test_mask_does_not_mutate_input(self, make, rng):
        sp = make()
        arr = rng.normal(size=100)
        before = arr.copy()
        sp.mask(arr)
        np.testing.assert_array_equal(arr, before)

    def test_split_partition_identity(self, make, rng):
        sp = make()
        arr = rng.normal(size=100)
        mask, sent, kept = sp.split(arr)
        # disjoint support
        assert not np.logical_and(sent != 0, kept != 0).any()
        # kept entries exactly preserve original values
        np.testing.assert_array_equal(kept[~mask], arr[~mask])

    def test_works_on_multidimensional(self, make, rng):
        sp = make()
        arr = rng.normal(size=(4, 5, 6))
        mask, sent, kept = sp.split(arr)
        assert sent.shape == kept.shape == arr.shape
