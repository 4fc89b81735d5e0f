"""Shared experiment helpers: batch scaling and momentum scaling rules."""

import pytest

from repro.harness import get_workload
from repro.harness.experiments.common import (
    METHOD_LABELS,
    scaled_batch,
    scaling_hyper,
)


class TestScaledBatch:
    def test_halves_per_doubling(self):
        assert scaled_batch(1) == 128
        assert scaled_batch(4) == 32
        assert scaled_batch(8) == 16
        assert scaled_batch(16) == 8

    def test_floor(self):
        assert scaled_batch(32) == 8
        assert scaled_batch(256) == 8

    def test_custom_base(self):
        assert scaled_batch(4, base=256) == 64


class TestScalingHyper:
    def test_small_scale_unchanged(self):
        wl = get_workload("cifar10")
        assert scaling_hyper(wl, 4) == wl.hyper
        assert scaling_hyper(wl, 8) == wl.hyper

    def test_momentum_reduced_at_16(self):
        wl = get_workload("cifar10")
        h = scaling_hyper(wl, 16)
        assert h.momentum == pytest.approx(0.3)
        assert h.lr == wl.hyper.lr

    def test_lr_halved_at_32(self):
        wl = get_workload("cifar10")
        h = scaling_hyper(wl, 32)
        assert h.momentum == pytest.approx(0.3)
        assert h.lr == pytest.approx(wl.hyper.lr * 0.5)


class TestMisc:
    def test_labels_cover_paper_methods(self):
        assert set(METHOD_LABELS) == {"msgd", "asgd", "gd_async", "dgc_async", "dgs"}
