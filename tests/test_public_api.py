"""Public API integrity: every __all__ name resolves; key surfaces import."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest


def _modules():
    import repro

    return ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    )


@pytest.mark.parametrize("name", _modules())
def test_all_names_resolve(name):
    """Every module under ``src/repro`` imports, and every name its
    ``__all__`` lists is bound on it."""
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ has unresolvable names: {missing}"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"
    assert repro.__all__ == ["__version__"]


def _modules_loaded_by(statement):
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    code = f"import sys\n{statement}\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_repro_loads_no_subpackage():
    assert _modules_loaded_by("import repro") == ["repro"]


def test_import_exec_loads_neither_analysis_nor_harness():
    """A run, and every parent of forked workers, imports ``repro.exec``;
    the static analysis suite and the experiment harness stay unloaded."""
    loaded = _modules_loaded_by("import repro.exec")
    assert "repro.exec.trainer" in loaded
    assert [m for m in loaded if m.startswith(("repro.analysis", "repro.harness"))] == []


def test_star_import_surface():
    namespace = {}
    exec("from repro.core import *", namespace)
    assert "ModelDifferenceTracker" in namespace
    assert "SAMomentumStrategy" in namespace


def test_experiment_modules_have_run():
    from repro.harness import experiments

    for name in experiments.__all__:
        mod = getattr(experiments, name)
        assert callable(getattr(mod, "run", None)), f"{name} lacks run()"


def test_cli_registry_matches_experiments():
    from repro.__main__ import EXPERIMENTS
    from repro.harness import experiments

    registered = {id(mod) for mod, _ in EXPERIMENTS.values()}
    available = {id(getattr(experiments, n)) for n in experiments.__all__}
    assert registered == available, "CLI registry out of sync with experiments package"
