"""Learning-rate schedules."""

import math

import pytest

from repro.optim import ConstantLR, StepDecay


class TestConstant:
    def test_constant(self):
        s = ConstantLR(0.1)
        assert s(0) == s(100) == 0.1


class TestStepDecay:
    def test_paper_imagenet_schedule(self):
        """LR 0.1 decays ×0.1 at epochs 30 and 60 (§5.1)."""
        s = StepDecay(0.1, milestones=(30, 60), factor=0.1)
        assert s(0) == pytest.approx(0.1)
        assert s(29.9) == pytest.approx(0.1)
        assert s(30) == pytest.approx(0.01)
        assert s(59.9) == pytest.approx(0.01)
        assert s(60) == pytest.approx(0.001)

    def test_unsorted_milestones(self):
        s = StepDecay(1.0, milestones=(40, 30), factor=0.5)
        assert s(35) == pytest.approx(0.5)

    def test_fractional_epochs(self):
        s = StepDecay(1.0, milestones=(1.5,), factor=0.1)
        assert s(1.4) == 1.0 and s(1.6) == pytest.approx(0.1)


class TestValidation:
    def test_nonpositive_lr_raises_at_call(self):
        s = ConstantLR(0.0)
        with pytest.raises(ValueError):
            s(0)
