"""Method catalogue and strategy construction."""

import pytest

from repro.core import METHODS, Hyper, MethodSpec, get_method
from repro.core.strategies import (
    DenseStrategy,
    DGCStrategy,
    GradientDroppingStrategy,
    SAMomentumStrategy,
)
from repro.exec import RunConfig, Trainer

SHAPES = {"w": (30,)}


class TestRegistry:
    def test_all_paper_methods_present(self):
        assert {"asgd", "gd_async", "dgc_async", "dgs"} <= set(METHODS)
        # the §6 combinations are entries of the same literal table
        assert {"terngrad", "random_dropping", "dgs_terngrad"} <= set(METHODS)

    def test_get_method(self):
        assert get_method("dgs").label == "DGS"

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            get_method("nope")

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
        assert isinstance(get_method("asgd").make_strategy(SHAPES, h), DenseStrategy)
        assert isinstance(get_method("gd_async").make_strategy(SHAPES, h), GradientDroppingStrategy)
        assert isinstance(get_method("dgc_async").make_strategy(SHAPES, h), DGCStrategy)
        assert isinstance(get_method("dgs").make_strategy(SHAPES, h), SAMomentumStrategy)

    def test_spec_make_strategy(self):
        st = get_method("dgs").make_strategy(SHAPES, Hyper(ratio=0.2, momentum=0.5))
        assert isinstance(st, SAMomentumStrategy)
        assert st.momentum == 0.5

    def test_hyper_ratio_propagates(self):
        st = get_method("gd_async").make_strategy(SHAPES, Hyper(ratio=0.25))
        assert st.sparsifier.ratio == 0.25


class _HalfStepStrategy(DenseStrategy):
    """A strategy the library does not ship: dense η∇ at half the step."""

    def prepare(self, grads, lr):
        return super().prepare(grads, 0.5 * lr)


def _half_step(shapes, hyper, dtype=None, seed=0):
    return _HalfStepStrategy(shapes, dtype=dtype)


class TestCustomMethod:
    """A method is one catalogue entry naming its strategy factory."""

    @pytest.mark.parametrize("backend", ["simulated", "process"])
    def test_user_factory_trains_through_trainer(
        self, backend, monkeypatch, tiny_dataset, tiny_model_factory
    ):
        spec = MethodSpec(name="half_step", label="Half-step", strategy=_half_step,
                          downstream="model")
        monkeypatch.setitem(METHODS, "half_step", spec)
        config = RunConfig("half_step", tiny_model_factory, tiny_dataset, num_workers=2,
                           batch_size=16, total_iterations=160, hyper=Hyper(lr=0.2), seed=0)
        trainer = Trainer(config, backend=backend)
        if backend == "simulated":
            assert all(isinstance(w.strategy, _HalfStepStrategy) for w in trainer.engine.workers)
        result = trainer.run()
        assert result.method == "half_step"
        assert not result.errors
        assert result.final_accuracy > 0.7
