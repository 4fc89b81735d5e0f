"""Experiment runners produce well-formed reports (fast mode).

The paper's claims are only gated at full scale (``python -m repro run``);
here every runner is exercised at ``--fast`` scale to validate wiring and
shapes, and to evaluate every claim's code.

Each report is also the numerics tripwire: its markdown, exactly as
``python -m repro run <name> --fast --out DIR`` writes it, must hash to the
digest committed in ``benchmarks/results/FAST_DIGESTS.json``.  Fast mode
runs one seed of the deterministic simulator, so any change to what an
experiment computes or prints moves its digest.  Re-record an intended
change with ``python benchmarks/record_fast_digests.py``, which hashes the
same bytes.  The digest is asserted after a report's other checks, so a
report that is malformed says so first.
"""

import hashlib
import json
import pathlib

import pytest

from repro.__main__ import EXPERIMENTS
from repro.harness import experiments as E
from repro.harness.report import ExperimentReport

#: experiments a dedicated test below already runs
COVERED = {"table2", "table5", "fig2", "fig5", "fig6", "memory", "ablation-secondary", "ablation-samomentum"}

DIGESTS = pathlib.Path(__file__).parents[2] / "benchmarks" / "results" / "FAST_DIGESTS.json"


def run_fast(module, min_rows=1):
    """``module.run(fast=True)`` — what ``python -m repro run --fast`` runs —
    checked for a well-formed report, then against its digest."""
    rep = module.run(fast=True)
    assert isinstance(rep, ExperimentReport)
    assert len(rep.rows) >= min_rows
    assert rep.claims, "every experiment checks at least one of the paper's claims"
    assert all(isinstance(text, str) and isinstance(held, bool) for text, held in rep.claims)
    text = rep.render()
    assert rep.experiment_id in text
    md = rep.markdown()
    assert md.startswith("**") or md.startswith("|")
    stem = module.__name__.rsplit(".", 1)[1]
    digest = hashlib.sha256((md + "\n").encode()).hexdigest()
    assert digest == json.loads(DIGESTS.read_text())["sha256"][stem], (
        f"{stem}.md moved from its committed --fast digest"
    )
    return rep


class TestLightExperiments:
    def test_table5(self):
        rep = run_fast(E.table5_techniques, min_rows=4)
        labels = [r[0] for r in rep.rows]
        assert "DGS" in labels and "ASGD" in labels

    def test_memory_usage(self):
        rep = run_fast(E.memory_usage, min_rows=4)
        by_method = {r[0]: r for r in rep.rows}
        # ASGD pays no per-worker v_k at the server; DGS does.
        assert float(by_method["ASGD"][1]) < float(by_method["DGS"][1])
        # DGS per-worker state (1 buffer) < DGC per-worker state (2 buffers).
        assert float(by_method["DGS"][2]) < float(by_method["DGC-async"][2])


@pytest.mark.slow
class TestFigureExperiments:
    def test_fig6_speedup(self):
        rep = run_fast(E.fig6_speedup, min_rows=4)
        assert rep.figures

    def test_fig5_low_bandwidth(self):
        rep = run_fast(E.fig5_low_bandwidth, min_rows=2)
        methods = [r[0] for r in rep.rows]
        assert methods == ["ASGD", "DGS"]

    def test_fig2_curves(self):
        rep = run_fast(E.fig2_cifar_curves, min_rows=5)
        assert len(rep.figures) == 2

    def test_ablation_secondary(self):
        run_fast(E.ablation_secondary, min_rows=2)

    def test_table2(self):
        run_fast(E.table2_accuracy, min_rows=10)

    def test_ablation_samomentum(self):
        run_fast(E.ablation_samomentum, min_rows=4)

    @pytest.mark.parametrize("name", [n for n in EXPERIMENTS if n not in COVERED])
    def test_every_other_experiment(self, name):
        module, _ = EXPERIMENTS[name]
        run_fast(module)
