"""Method registry and strategy construction."""

import pytest

from repro.core import METHODS, Hyper, build_strategy, get_method
from repro.core.strategies import (
    DenseStrategy,
    DGCStrategy,
    GradientDroppingStrategy,
    SAMomentumStrategy,
)

SHAPES = {"w": (30,)}


class TestRegistry:
    def test_all_paper_methods_present(self):
        assert {"msgd", "asgd", "gd_async", "dgc_async", "dgs"} <= set(METHODS)
        # §6 extensions register on import as well
        assert {"terngrad", "random_dropping", "dgs_terngrad"} <= set(METHODS)

    def test_get_method(self):
        assert get_method("dgs").label == "DGS"

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            get_method("nope")

    def test_msgd_is_single_node(self):
        assert not get_method("msgd").distributed

    def test_downstream_modes(self):
        assert get_method("asgd").downstream == "model"
        for name in ("gd_async", "dgc_async", "dgs"):
            assert get_method(name).downstream == "difference"

    def test_table5_flags(self):
        dgs = get_method("dgs")
        assert dgs.momentum == "SAMomentum"
        assert not dgs.momentum_correction
        assert not dgs.residual_accumulation
        dgc = get_method("dgc_async")
        assert dgc.momentum_correction and dgc.residual_accumulation


class TestBuildStrategy:
    def test_kinds(self):
        h = Hyper()
        assert isinstance(build_strategy("dense", SHAPES, h), DenseStrategy)
        assert isinstance(build_strategy("dropping", SHAPES, h), GradientDroppingStrategy)
        assert isinstance(build_strategy("dgc", SHAPES, h), DGCStrategy)
        assert isinstance(build_strategy("samomentum", SHAPES, h), SAMomentumStrategy)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_strategy("nope", SHAPES, Hyper())

    def test_spec_make_strategy(self):
        st = get_method("dgs").make_strategy(SHAPES, Hyper(ratio=0.2, momentum=0.5))
        assert isinstance(st, SAMomentumStrategy)
        assert st.momentum == 0.5

    def test_hyper_ratio_propagates(self):
        st = build_strategy("dropping", SHAPES, Hyper(ratio=0.25))
        assert st.sparsifier.ratio == 0.25
