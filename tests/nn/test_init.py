"""Weight initialisation schemes."""

import math

import numpy as np

from repro.nn import init


class TestFanComputation:
    def test_linear_shape(self):
        fan_in, fan_out = init._fan_in_out((8, 4))
        assert (fan_in, fan_out) == (4, 8)

    def test_conv_shape(self):
        fan_in, fan_out = init._fan_in_out((16, 3, 3, 3))
        assert fan_in == 3 * 9
        assert fan_out == 16 * 9

    def test_other_shape(self):
        fan_in, fan_out = init._fan_in_out((5,))
        assert fan_in == fan_out == 5


class TestKaiming:
    def test_uniform_bound(self, rng):
        w = init.kaiming_uniform((64, 100), rng)
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 100)
        assert np.abs(w).max() <= bound

    def test_uniform_variance_scales(self, rng):
        small = init.kaiming_uniform((8, 10), rng).std()
        big = init.kaiming_uniform((8, 1000), rng).std()
        assert big < small


class TestConstants:
    def test_zeros_ones(self):
        assert (init.zeros((3, 3)) == 0).all()
        assert (init.ones((2,)) == 1).all()
