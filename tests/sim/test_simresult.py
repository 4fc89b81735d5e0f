"""TrainResult derived-metric math on simulator- and barrier-shaped results."""

import pytest

from repro.exec import TrainResult
from repro.metrics import Curve


def make_simresult(**overrides):
    defaults = dict(
        method="dgs",
        num_workers=4,
        final_accuracy=0.9,
        final_loss=0.3,
        loss_vs_step=Curve("a"),
        loss_vs_time=Curve("b"),
        acc_vs_step=Curve("c"),
        makespan_s=10.0,
        total_iterations=100,
        samples_processed=3200,
        mean_staleness=3.0,
        upload_bytes=1000,
        download_bytes=2000,
        upload_dense_bytes=10000,
        download_dense_bytes=20000,
        uplink_utilisation=0.5,
        downlink_utilisation=0.5,
        server_state_bytes=0,
        worker_state_bytes=0,
    )
    defaults.update(overrides)
    return TrainResult(**defaults)


class TestSimResult:
    def test_throughput(self):
        assert make_simresult().throughput == pytest.approx(320.0)

    def test_throughput_zero_makespan(self):
        assert make_simresult(makespan_s=0.0).throughput == 0.0

    def test_compression_ratio(self):
        assert make_simresult().compression_ratio == pytest.approx(10.0)

    def test_compression_ratio_no_traffic(self):
        r = make_simresult(
            upload_bytes=0, download_bytes=0, upload_dense_bytes=0, download_dense_bytes=0
        )
        assert r.compression_ratio == 1.0


class TestSyncResult:
    def test_throughput(self):
        r = TrainResult(
            method="asgd", num_workers=2, final_accuracy=0.9, final_loss=0.1,
            loss_vs_step=Curve("a"), loss_vs_time=Curve("b"), makespan_s=4.0,
            rounds=10, samples_processed=400, upload_bytes=1, download_bytes=1,
            straggler_time_s=0.0,
        )
        assert r.throughput == pytest.approx(100.0)
