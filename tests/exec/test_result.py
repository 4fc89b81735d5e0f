"""The unified TrainResult schema: None/NaN semantics and validation."""

import math

from repro.exec import TrainResult, validate_result
from repro.metrics.curves import Curve


def _curve(n=3):
    c = Curve("loss_vs_step")
    for i in range(n):
        c.add(i + 1, 1.0 / (i + 1))
    return c


def _valid(**overrides):
    kwargs = dict(
        method="dgs",
        backend="simulated",
        num_workers=2,
        final_accuracy=0.9,
        final_loss=0.2,
        loss_vs_step=_curve(),
        total_iterations=10,
        samples_processed=160,
        mean_staleness=1.0,
        upload_bytes=1000,
        download_bytes=1000,
    )
    kwargs.update(overrides)
    return TrainResult(**kwargs)


class TestNoneVersusNaN:
    def test_unmeasured_optionals_default_to_none(self):
        r = TrainResult()
        for name in (
            "loss_vs_time",
            "acc_vs_step",
            "makespan_s",
            "clock",
            "upload_dense_bytes",
            "wire_bytes_up",
            "uplink_utilisation",
            "server_state_bytes",
            "rounds",
            "straggler_time_s",
        ):
            assert getattr(r, name) is None, name

    def test_defined_but_unobserved_defaults_to_nan(self):
        r = TrainResult()
        assert math.isnan(r.final_accuracy)
        assert math.isnan(r.mean_staleness)

    def test_throughput_nan_without_makespan(self):
        assert math.isnan(_valid(makespan_s=None).throughput)

    def test_throughput_zero_makespan(self):
        assert _valid(makespan_s=0.0, clock="virtual").throughput == 0.0

    def test_throughput_measured(self):
        r = _valid(makespan_s=4.0, clock="virtual")
        assert r.throughput == r.samples_processed / 4.0

    def test_compression_ratio_nan_without_dense_accounting(self):
        assert math.isnan(_valid().compression_ratio)

    def test_compression_ratio_measured(self):
        r = _valid(upload_dense_bytes=5000, download_dense_bytes=5000)
        assert r.compression_ratio == 10000 / 2000


class TestValidateResult:
    def test_valid_result_is_clean(self):
        assert validate_result(_valid()) == []

    def test_default_result_reports_core_violations(self):
        problems = validate_result(TrainResult())
        text = "\n".join(problems)
        assert "method is empty" in text
        assert "backend is empty" in text
        assert "num_workers" in text

    def test_nan_accuracy_flagged(self):
        assert any("final_accuracy" in p for p in validate_result(_valid(final_accuracy=float("nan"))))

    def test_missing_byte_accounting_flagged(self):
        assert any("byte accounting" in p for p in validate_result(_valid(download_bytes=0)))

    def test_makespan_requires_clock_domain(self):
        problems = validate_result(_valid(makespan_s=1.0, clock=None))
        assert any("clock domain" in p for p in problems)

    def test_bad_clock_value_flagged(self):
        assert any("clock" in p for p in validate_result(_valid(clock="lamport")))

    def test_claimed_measures_must_be_populated(self):
        problems = validate_result(_valid(), measures=("wire_bytes_up",))
        assert problems == ["backend claims to measure 'wire_bytes_up' but it is None"]

    def test_populated_measures_pass(self):
        r = _valid(makespan_s=1.0, clock="wall", wire_bytes_up=10)
        assert validate_result(r, measures=("makespan_s", "clock", "wire_bytes_up")) == []
