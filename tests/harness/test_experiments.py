"""Experiment runners produce well-formed reports (fast mode).

The paper's claims are only gated at full scale (``python -m repro run``);
here every runner is exercised at ``--fast`` scale to validate wiring and
shapes, and to evaluate every claim's code.
"""

import pytest

from repro.__main__ import EXPERIMENTS
from repro.harness import experiments as E
from repro.harness.report import ExperimentReport

#: experiments a dedicated test below already runs
COVERED = {"table2", "table5", "fig2", "fig5", "fig6", "memory", "ablation-secondary", "ablation-samomentum"}


def check_report(rep, min_rows=1):
    assert isinstance(rep, ExperimentReport)
    assert len(rep.rows) >= min_rows
    assert rep.claims, "every experiment checks at least one of the paper's claims"
    assert all(isinstance(text, str) and isinstance(held, bool) for text, held in rep.claims)
    text = rep.render()
    assert rep.experiment_id in text
    md = rep.markdown()
    assert md.startswith("**") or md.startswith("|")
    return rep


class TestLightExperiments:
    def test_table5(self):
        rep = check_report(E.table5_techniques.run(), min_rows=4)
        labels = [r[0] for r in rep.rows]
        assert "DGS" in labels and "ASGD" in labels

    def test_memory_usage(self):
        rep = check_report(E.memory_usage.run(fast=True), min_rows=4)
        by_method = {r[0]: r for r in rep.rows}
        # ASGD pays no per-worker v_k at the server; DGS does.
        assert float(by_method["ASGD"][1]) < float(by_method["DGS"][1])
        # DGS per-worker state (1 buffer) < DGC per-worker state (2 buffers).
        assert float(by_method["DGS"][2]) < float(by_method["DGC-async"][2])


@pytest.mark.slow
class TestFigureExperiments:
    def test_fig6_speedup(self):
        rep = check_report(E.fig6_speedup.run(fast=True), min_rows=4)
        assert rep.figures

    def test_fig5_low_bandwidth(self):
        rep = check_report(E.fig5_low_bandwidth.run(fast=True), min_rows=2)
        methods = [r[0] for r in rep.rows]
        assert methods == ["ASGD", "DGS"]

    def test_fig2_curves(self):
        rep = check_report(E.fig2_cifar_curves.run(fast=True), min_rows=5)
        assert len(rep.figures) == 2

    def test_ablation_secondary(self):
        rep = check_report(E.ablation_secondary.run(fast=True), min_rows=2)

    def test_table2(self):
        rep = check_report(E.table2_accuracy.run(fast=True, seeds=(0,)), min_rows=10)

    def test_ablation_samomentum(self):
        rep = check_report(E.ablation_samomentum.run(fast=True, seeds=(0,)), min_rows=4)

    @pytest.mark.parametrize("name", [n for n in EXPERIMENTS if n not in COVERED])
    def test_every_other_experiment(self, name):
        module, _ = EXPERIMENTS[name]
        check_report(module.run(fast=True))
