"""Random-k sparsifier, sparsify/unsparsify helpers."""

import numpy as np
import pytest

from repro.compression import (
    RandomKSparsifier,
    sparsify,
    unsparsify,
)


class TestRandomK:
    def test_count(self, rng):
        sp = RandomKSparsifier(0.1, seed=0)
        assert sp.mask(rng.normal(size=1000)).sum() == 100

    def test_unbiased_with_rescale(self, rng):
        """E[sent] == arr elementwise when rescale=True."""
        arr = rng.normal(size=200)
        sp = RandomKSparsifier(0.25, seed=0, rescale=True)
        total = np.zeros_like(arr)
        n_trials = 1000
        for _ in range(n_trials):
            _, sent, _ = sp.split(arr)
            total += sent
        # std of the mean ≈ |arr|·sqrt(3)/sqrt(n_trials); 6σ bound for the worst case
        np.testing.assert_allclose(total / n_trials, arr, atol=6 * np.abs(arr).max() * np.sqrt(3 / n_trials))

    def test_no_rescale_preserves_values(self, rng):
        arr = rng.normal(size=100)
        sp = RandomKSparsifier(0.5, seed=0, rescale=False)
        mask, sent, kept = sp.split(arr)
        np.testing.assert_allclose(sent + kept, arr)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            RandomKSparsifier(0.0)


class TestSparsifyHelpers:
    def test_partition(self, rng):
        arr = rng.normal(size=20)
        mask = rng.random(20) > 0.5
        np.testing.assert_allclose(sparsify(arr, mask) + unsparsify(arr, mask), arr)

    def test_sparsify_zeroes_unmasked(self, rng):
        arr = rng.normal(size=10)
        mask = np.zeros(10, dtype=bool)
        np.testing.assert_array_equal(sparsify(arr, mask), np.zeros(10))
