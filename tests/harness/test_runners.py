"""Runner wrappers (fast scale)."""

import pytest

from repro.harness import get_workload, run_distributed, run_msgd
from repro.harness.local import LocalResult
from repro.exec import TrainResult


@pytest.fixture(scope="module")
def wl():
    return get_workload("blobs")


class TestRunDistributed:
    def test_returns_simresult(self, wl):
        r = run_distributed("dgs", wl, 2, fast=True, epochs=1)
        assert isinstance(r, TrainResult)
        assert r.num_workers == 2
        assert r.total_iterations == wl.dataset(fast=True).n_train // wl.batch_size

    def test_total_iterations_override(self, wl):
        r = run_distributed("asgd", wl, 2, fast=True, total_iterations=7)
        assert r.total_iterations == 7

    def test_batch_size_override(self, wl):
        r = run_distributed("asgd", wl, 2, fast=True, epochs=1, batch_size=8)
        assert r.samples_processed == r.total_iterations * 8

    def test_hyper_lr_reaches_schedule(self, wl):
        from dataclasses import replace

        # Sanity: overriding hyper.lr changes behaviour (different final loss).
        a = run_distributed("asgd", wl, 2, fast=True, epochs=1, seed=0)
        b = run_distributed(
            "asgd", wl, 2, fast=True, epochs=1, seed=0, hyper=replace(wl.hyper, lr=1e-5)
        )
        assert a.final_loss != b.final_loss


class TestRunMsgd:
    def test_returns_localresult(self, wl):
        r = run_msgd(wl, fast=True, epochs=1)
        assert isinstance(r, LocalResult)
        assert r.final_accuracy > 0.0
