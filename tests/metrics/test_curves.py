"""Curves."""

import numpy as np
import pytest

from repro.metrics import Curve


class TestCurve:
    def test_add_and_len(self):
        c = Curve("x")
        c.add(1, 10.0)
        c.add(2, 20.0)
        assert len(c) == 2
        assert c.final == 20.0

    def test_rejects_decreasing_x(self):
        c = Curve("x")
        c.add(2, 1.0)
        with pytest.raises(ValueError):
            c.add(1, 1.0)

    def test_best(self):
        c = Curve("x")
        for i, v in enumerate([3.0, 9.0, 5.0]):
            c.add(i, v)
        assert c.best("max") == 9.0
        assert c.best("min") == 3.0

    def test_empty_final_raises(self):
        with pytest.raises(ValueError):
            Curve("x").final

    def test_y_at_interpolates(self):
        c = Curve("x")
        c.add(0, 0.0)
        c.add(10, 100.0)
        assert c.y_at(5) == pytest.approx(50.0)

    def test_x_reaching_below(self):
        c = Curve("loss")
        for i, v in enumerate([5.0, 3.0, 0.9, 0.5]):
            c.add(i, v)
        assert c.x_reaching(1.0, "below") == 2

    def test_x_reaching_none_if_never(self):
        c = Curve("loss")
        c.add(0, 5.0)
        assert c.x_reaching(1.0, "below") is None

    def test_x_reaching_above(self):
        c = Curve("acc")
        for i, v in enumerate([0.1, 0.6, 0.9]):
            c.add(i, v)
        assert c.x_reaching(0.5, "above") == 1

    def test_resample(self):
        c = Curve("x")
        c.add(0, 0.0)
        c.add(2, 2.0)
        np.testing.assert_allclose(c.resample(np.array([0.0, 1.0, 2.0])), [0, 1, 2])

    def test_to_rows(self):
        c = Curve("x")
        c.add(1, 2.0)
        assert c.to_rows() == [(1.0, 2.0)]
