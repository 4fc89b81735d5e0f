"""Exec-level parity: production against the oracle ``RunConfig(arena=False)``
installs (``repro.core.reference``).

With ``arena_dtype="float64"`` production must reproduce the oracle's run
*bitwise* — identical loss curves, not just close — on a deterministic
backend.  With the float32 default it must still train to an equivalent
result (wire values were already float32 on both sides).
"""

import numpy as np
import pytest

from repro.data import make_blobs
from repro.exec import RunConfig, Trainer
from repro.nn import MLP


@pytest.fixture(scope="module")
def ds():
    return make_blobs(n_samples=240, num_classes=3, dim=10, seed=3)


def factory():
    return MLP(10, (14,), 3, seed=5)


def _run(ds, backend="simulated", **kwargs):
    config = RunConfig(
        kwargs.pop("method", "asgd"),
        factory,
        ds,
        num_workers=kwargs.pop("num_workers", 1),
        batch_size=16,
        total_iterations=kwargs.pop("total_iterations", 40),
        seed=0,
        **kwargs,
    )
    return Trainer(config, backend=backend).run()


class TestFloat64Parity:
    def test_dense_asgd_identical_loss_curve(self, ds):
        """The headline gate: production f64 == the oracle, bit for bit."""
        opt = _run(ds, arena=True, arena_dtype="float64")
        ref = _run(ds, arena=False)
        assert opt.final_loss == ref.final_loss
        assert list(opt.loss_vs_step.ys) == list(ref.loss_vs_step.ys)

    def test_dgs_identical_loss_curve(self, ds):
        """Sparsified path (top-k + tracker) through the same gate."""
        opt = _run(ds, method="dgs", arena=True, arena_dtype="float64")
        ref = _run(ds, method="dgs", arena=False)
        assert opt.final_loss == ref.final_loss
        assert list(opt.loss_vs_step.ys) == list(ref.loss_vs_step.ys)

    def test_sync_backend_identical(self, ds):
        opt = _run(ds, backend="sync", num_workers=2, arena=True, arena_dtype="float64")
        ref = _run(ds, backend="sync", num_workers=2, arena=False)
        assert opt.final_loss == ref.final_loss


class TestFloat32Default:
    def test_default_arena_trains_equivalently(self, ds):
        """float32 arenas: same training outcome within f32 rounding."""
        opt = _run(ds, total_iterations=60)  # arena=True is the default
        ref = _run(ds, total_iterations=60, arena=False)
        assert np.isfinite(opt.final_loss)
        assert opt.final_loss == pytest.approx(ref.final_loss, rel=1e-3, abs=1e-6)

    def test_multi_worker_multi_method(self, ds):
        for method in ("dgs", "dgc_async", "gd_async"):
            r = _run(ds, method=method, num_workers=3, total_iterations=45)
            assert np.isfinite(r.final_loss), method
