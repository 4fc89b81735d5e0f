"""The python -m repro CLI."""

import types

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.exec import RunConfig, train
from repro.harness.report import ExperimentReport


def _stub_experiment(holds):
    """An experiment module whose one claim holds or fails as told."""
    module = types.ModuleType("stub_experiment")

    def run(fast=False):
        report = ExperimentReport("Stub", "one claim", headers=("x",))
        report.add_row(1)
        report.claim("the paper's shape", holds)
        return report

    module.run = run
    return module


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig6" in out

    def test_all_experiment_ids_registered(self):
        assert {"table2", "table3", "table4", "table5", "fig2", "fig3", "fig4",
                "fig5", "fig6", "memory"} <= set(EXPERIMENTS)

    def test_run_table5(self, capsys):
        assert main(["run", "table5", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "SAMomentum" in out
        claims = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(claims) == 4 and all(line.startswith("PASS  table5: ") for line in claims)

    def test_run_with_out_dir(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "fig6", "--fast", "--out", str(out)]) == 0
        written = sorted(p.name for p in out.iterdir())
        assert written == ["fig6_speedup.md", "fig6_speedup.txt", "fig6_speedup_speedup.svg"]
        assert (out / "fig6_speedup.md").read_text().startswith("**Figure 6: ")
        assert (out / "fig6_speedup_speedup.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "holds, fast, code",
        [(False, False, 1), (False, True, 0), (True, False, 0)],
        ids=["fail-full-scale", "fail-fast", "pass-full-scale"],
    )
    def test_claims_gate_only_at_full_scale(self, monkeypatch, capsys, holds, fast, code):
        monkeypatch.setitem(EXPERIMENTS, "stub", (_stub_experiment(holds), "stub"))
        assert main(["run", "stub", *(["--fast"] if fast else [])]) == code
        verdict = "PASS" if holds else "FAIL"
        assert f"{verdict}  stub: the paper's shape" in capsys.readouterr().out

    def test_checkpointing_on_a_virtual_clock_backend_is_an_error(
        self, monkeypatch, tmp_path, capsys, tiny_dataset, tiny_model_factory
    ):
        """The default backend is the simulator, which writes no checkpoint:
        the run stops with the engine's refusal instead of exiting 0."""
        config = RunConfig("dgs", tiny_model_factory, tiny_dataset, num_workers=2,
                           batch_size=16, total_iterations=8)
        module = types.ModuleType("stub_training")
        module.run = lambda fast=False: train(config)
        monkeypatch.setitem(EXPERIMENTS, "stub", (module, "stub"))
        path = tmp_path / "run.ckpt"
        assert main(["run", "stub", "--checkpoint-every", "5", "--checkpoint", str(path)]) == 2
        assert "checkpoint_every is not supported by the simulated backend" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("every", ["0", "-3", "x"])
    def test_bad_checkpoint_cadence_is_a_usage_error(self, monkeypatch, tmp_path, capsys, every):
        """A cadence below 1 exits 2 at parse time, before any experiment
        runs, rather than as a failed run's exit 1."""
        ran = []
        module = types.ModuleType("stub_never_runs")
        module.run = lambda fast=False: ran.append(fast)
        monkeypatch.setitem(EXPERIMENTS, "stub", (module, "stub"))
        with pytest.raises(SystemExit) as exc:
            main(["run", "stub", "--checkpoint-every", every,
                  "--checkpoint", str(tmp_path / "run.ckpt")])
        assert exc.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err
        assert not ran

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])
