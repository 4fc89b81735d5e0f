"""Threaded (real-concurrency) trainer integration."""

import numpy as np
import pytest

from repro.core import Hyper
from repro.exec import RunConfig
from repro.exec.threaded import ThreadedTrainer


def _trainer(method, tiny_dataset, tiny_model_factory, num_workers, iterations_per_worker, **fields):
    config = RunConfig(
        method,
        tiny_model_factory,
        tiny_dataset,
        num_workers=num_workers,
        batch_size=16,
        total_iterations=iterations_per_worker * num_workers,
        seed=0,
        **fields,
    )
    return ThreadedTrainer(config)


@pytest.mark.parametrize("method", ["asgd", "gd_async", "dgc_async", "dgs"])
def test_threaded_training_learns(method, tiny_dataset, tiny_model_factory):
    trainer = _trainer(
        method,
        tiny_dataset,
        tiny_model_factory,
        num_workers=3,
        iterations_per_worker=25,
        hyper=Hyper(lr=0.1, momentum=0.7, ratio=0.1, min_sparse_size=0),
    )
    result = trainer.run()
    assert result.final_accuracy > 0.7  # blobs are easy; random is 0.25
    assert result.total_iterations == 3 * 25
    assert result.upload_bytes > 0 and result.download_bytes > 0
    assert len(result.loss_vs_step) == 75


def test_staleness_is_nonzero_with_multiple_workers(tiny_dataset, tiny_model_factory):
    trainer = _trainer(
        "asgd", tiny_dataset, tiny_model_factory, num_workers=4, iterations_per_worker=15
    )
    result = trainer.run()
    assert result.mean_staleness > 0


def test_single_worker_has_zero_staleness(tiny_dataset, tiny_model_factory):
    trainer = _trainer(
        "asgd", tiny_dataset, tiny_model_factory, num_workers=1, iterations_per_worker=10
    )
    result = trainer.run()
    assert result.mean_staleness == 0


def test_msgd_rejected(tiny_dataset, tiny_model_factory):
    with pytest.raises(ValueError):
        _trainer("msgd", tiny_dataset, tiny_model_factory, num_workers=2, iterations_per_worker=5)


def test_sparse_methods_upload_fewer_bytes(tiny_dataset, tiny_model_factory):
    def run(method):
        return _trainer(
            method, tiny_dataset, tiny_model_factory,
            num_workers=2, iterations_per_worker=10,
            hyper=Hyper(ratio=0.02, min_sparse_size=0),
        ).run()

    dense = run("asgd")
    sparse = run("dgs")
    assert sparse.upload_bytes < dense.upload_bytes / 5
