"""Additional threaded-trainer coverage: secondary compression, error paths."""

import numpy as np
import pytest

from repro.core import Hyper
from repro.exec import RunConfig
from repro.exec.threaded import ThreadedTrainer

HYPER = Hyper(lr=0.1, momentum=0.7, ratio=0.1, secondary_ratio=0.1, min_sparse_size=0)


def make(tiny_dataset, tiny_model_factory, **kw):
    defaults = dict(
        num_workers=3, batch_size=16, total_iterations=3 * 15, hyper=HYPER, seed=0
    )
    defaults.update(kw)
    return ThreadedTrainer(RunConfig("dgs", tiny_model_factory, tiny_dataset, **defaults))


class TestSecondaryCompression:
    def test_reduces_download_bytes(self, tiny_dataset, tiny_model_factory):
        # Secondary ratio well below the accumulated-difference density —
        # with encode_best already picking bitmap/dense for dense diffs,
        # secondary compression pays off when its ratio is genuinely tighter.
        hyper = Hyper(lr=0.1, momentum=0.7, ratio=0.1, secondary_ratio=0.02, min_sparse_size=0)
        off = make(tiny_dataset, tiny_model_factory, hyper=hyper,
                   secondary_compression=False).run()
        on = make(tiny_dataset, tiny_model_factory, hyper=hyper,
                  secondary_compression=True).run()
        assert on.download_bytes < off.download_bytes
        assert on.final_accuracy > 0.6  # still trains


class TestErrorPropagation:
    def test_worker_exception_surfaces(self, tiny_dataset, tiny_model_factory):
        trainer = make(tiny_dataset, tiny_model_factory)

        def boom(*a, **k):
            raise RuntimeError("injected failure")

        trainer.workers[1].compute_step = boom
        with pytest.raises(RuntimeError, match="worker"):
            trainer.run()


class TestCurveBookkeeping:
    def test_loss_curve_monotone_x(self, tiny_dataset, tiny_model_factory):
        r = make(tiny_dataset, tiny_model_factory).run()
        xs = r.loss_vs_step.xs
        assert xs == sorted(xs)
        assert len(xs) == 45

    def test_custom_schedule_used(self, tiny_dataset, tiny_model_factory):
        from repro.optim import ConstantLR

        frozen = make(
            tiny_dataset, tiny_model_factory, schedule=ConstantLR(1e-9)
        ).run()
        normal = make(tiny_dataset, tiny_model_factory).run()
        assert frozen.final_loss > normal.final_loss
