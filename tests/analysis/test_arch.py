"""Architecture layering tests (ARC001/ARC002) and the committed baseline."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.concurrency import (
    ALLOWED_DEPS,
    ArchConfig,
    baseline_path,
    build_import_graph,
    check_architecture,
    load_baseline,
    matrix_is_acyclic,
    package_edges,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def write_mini_tree(root: Path, files: "dict[str, str]") -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


class TestMatrix:
    def test_matrix_is_a_dag(self):
        assert matrix_is_acyclic()

    def test_matrix_respects_the_layer_story(self):
        # analysis sits on top and runtime-imports nothing; leaf layers
        # import nothing; exec sees the backends, not vice versa
        assert ALLOWED_DEPS["analysis"] == frozenset()
        assert ALLOWED_DEPS["autograd"] == frozenset()
        assert "exec" not in ALLOWED_DEPS["ps"]
        assert "exec" not in ALLOWED_DEPS["comm"]
        assert "exec" not in ALLOWED_DEPS["sim"]


class TestBaseline:
    def test_baseline_is_committed(self):
        assert baseline_path().exists()
        payload = json.loads(baseline_path().read_text())
        assert payload["package_edges"]

    def test_baseline_matches_current_tree(self):
        # the baseline records exactly the edges the tree makes: a new edge
        # and an edge that went away both fail — regenerate with
        # `python -m repro.analysis arch --update-baseline` after a
        # *deliberate* architecture change
        edges = build_import_graph(SRC)
        current = set(package_edges(edges))
        recorded = load_baseline()
        assert current == recorded, (
            f"new: {sorted(current - recorded)}, gone: {sorted(recorded - current)}"
        )

    def test_grandfathered_debt_is_exactly_the_known_edges(self):
        payload = json.loads(baseline_path().read_text())
        assert payload["grandfathered"] == []


class TestViolationDetection:
    def test_src_tree_is_clean(self):
        findings = check_architecture(SRC)
        assert findings == [], [f.format() for f in findings]

    def test_unapproved_edge_fails(self, tmp_path):
        # a fresh low-layer module importing a high layer must trip ARC001
        write_mini_tree(
            tmp_path,
            {
                "__init__.py": "",
                "low/__init__.py": "",
                "low/util.py": "from ..high import engine\n",
                "high/__init__.py": "",
                "high/engine.py": "x = 1\n",
            },
        )
        config = ArchConfig(
            allowed={"high": frozenset({"low"}), "low": frozenset()}, baseline=set()
        )
        findings = check_architecture(tmp_path, config=config)
        assert [f.rule for f in findings] == ["ARC001"]
        (f,) = findings
        assert "'low'" in f.message and "'high'" in f.message
        assert f.path.endswith("util.py") and f.line == 1

    def test_baseline_grandfathers_the_edge(self, tmp_path):
        write_mini_tree(
            tmp_path,
            {
                "__init__.py": "",
                "low/__init__.py": "",
                "low/util.py": "from ..high import engine\n",
                "high/__init__.py": "",
                "high/engine.py": "x = 1\n",
            },
        )
        config = ArchConfig(
            allowed={"high": frozenset({"low"}), "low": frozenset()},
            baseline={("low", "high")},
        )
        assert check_architecture(tmp_path, config=config) == []

    def test_import_cycle_reported(self, tmp_path):
        write_mini_tree(
            tmp_path,
            {
                "__init__.py": "",
                "a/__init__.py": "",
                "a/one.py": "from ..b import two\n",
                "b/__init__.py": "",
                "b/two.py": "from ..a import one\n",
            },
        )
        config = ArchConfig(
            allowed={"a": frozenset({"b"}), "b": frozenset({"a"})}, baseline=set()
        )
        findings = check_architecture(tmp_path, config=config)
        assert [f.rule for f in findings] == ["ARC002"]
        assert "a.one -> b.two -> a.one" in findings[0].message

    def test_type_checking_imports_are_not_runtime_edges(self, tmp_path):
        write_mini_tree(
            tmp_path,
            {
                "__init__.py": "",
                "low/__init__.py": "",
                "low/util.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from ..high import engine\n"
                ),
                "high/__init__.py": "",
                "high/engine.py": "x = 1\n",
            },
        )
        config = ArchConfig(
            allowed={"high": frozenset({"low"}), "low": frozenset()}, baseline=set()
        )
        assert check_architecture(tmp_path, config=config) == []
