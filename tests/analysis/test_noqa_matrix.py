"""``# repro: noqa`` suppression works across every rule family.

One parametrized matrix: for each family (style, comm, perf, locks, the
new lock-graph rules, layering) build a minimal offending tree, confirm
the rule fires without the pragma and is silenced with it.  Plus the
pragma-hygiene rule itself: unknown rule codes and malformed rule lists in
pragmas are reported (NOQ001) and are *not* self-suppressible.
"""

from __future__ import annotations

import pytest

from repro.analysis import run_analysis
from repro.analysis.concurrency import ArchConfig, check_architecture
from repro.analysis.linter import LintConfig, lint_file, load_module
from repro.analysis.rules import known_rule_ids
from repro.analysis.rules.pragma import PragmaHygieneRule

#: (rule id, relpath, offending source with {noqa} hook on the flagged line)
CASES = [
    (
        "RNG001",  # style/randomness family
        "mod.py",
        "import numpy as np\nstate = np.random.rand(3){noqa}\n",
    ),
    (
        "MUT001",  # style family
        "mod.py",
        "def f(x=[]){noqa}:\n    return x\n",
    ),
    (
        "EXC001",  # style family
        "mod.py",
        "try:\n    pass\nexcept{noqa}:\n    pass\n",
    ),
    (
        "COM001",  # comm family: framing outside comm/
        "ps/mod.py",
        "import struct{noqa}\nHDR = struct.pack('<I', 1)\n",
    ),
    (
        "PERF001",  # perf family: per-layer python loop in hot scope
        "core/mod.py",
        (
            "def apply(model, other):\n"
            "    for name, p in parameters_of(model).items(){noqa}:\n"
            "        p.data += other[name]\n"
        ),
    ),
    (
        "PERF003",  # perf family: payload-sized copy in a wire module
        "comm/socket.py",
        "def send_raw(sock, prefix, raw):\n    sock.sendall(prefix + raw){noqa}\n",
    ),
    (
        "DTY001",  # hot-path dtype hygiene
        "ps/mod.py",
        "import numpy as np\nbuf = np.zeros(8){noqa}\n",
    ),
    (
        "LCK001",  # per-class lock discipline
        "mod.py",
        (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.state = {}\n"
            "        self._lock = threading.Lock()\n"
            "    def put(self, k):\n"
            "        self.state[k] = 1{noqa}\n"
            "    def get(self, k):\n"
            "        with self._lock:\n"
            "            return self.state.get(k)\n"
        ),
    ),
    (
        "LCK006",  # bare acquire/release (new)
        "mod.py",
        (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.state = {}\n"
            "        self._lock = threading.Lock()\n"
            "    def put(self, k):\n"
            "        self._lock.acquire()\n"
            "        self.state[k] = 1\n"
            "        self._lock.release(){noqa}\n"
        ),
    ),
]


def write_tree(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    if path.parent != root:
        (path.parent / "__init__.py").write_text("")
    return path


@pytest.mark.parametrize("rule,relpath,template", CASES, ids=[c[0] for c in CASES])
def test_rule_fires_and_is_suppressible(tmp_path, rule, relpath, template):
    write_tree(tmp_path, relpath, template.replace("{noqa}", ""))
    findings = run_analysis(root=tmp_path, sanitizer=False)
    assert rule in {f.rule for f in findings}, f"{rule} did not fire on its fixture"

    suppressed_dir = tmp_path / "suppressed"
    suppressed_dir.mkdir()
    write_tree(suppressed_dir, relpath, template.replace("{noqa}", f"  # repro: noqa {rule}"))
    findings = run_analysis(root=suppressed_dir, sanitizer=False)
    assert rule not in {f.rule for f in findings}, f"noqa did not silence {rule}"


@pytest.mark.parametrize("rule", ["LCK004", "LCK005"])
def test_lockgraph_rules_fire_and_are_suppressible(tmp_path, rule):
    # covered in depth by test_lockgraph.py; here just the matrix property
    from repro.analysis.concurrency import check_lock_graph

    source = {
        "LCK004": (
            "import threading\n"
            "class A:\n"
            "    def __init__(self, b: 'B'):\n"
            "        self.b = b\n"
            "        self._lock = threading.Lock()\n"
            "    def fa(self):\n"
            "        with self._lock:\n"
            "            self.b.fb(){noqa}\n"
            "class B:\n"
            "    def __init__(self, a: 'A'):\n"
            "        self.a = a\n"
            "        self._lock = threading.Lock()\n"
            "    def fb(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "    def back(self):\n"
            "        with self._lock:\n"
            "            self.a.fa()\n"
        ),
        "LCK005": (
            "import threading\n"
            "class P:\n"
            "    def __init__(self, ch):\n"
            "        self.ch = ch\n"
            "        self._lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            self.ch.send(b'x'){noqa}\n"
        ),
    }[rule]
    path = tmp_path / "mod.py"
    path.write_text(source.replace("{noqa}", ""))
    assert rule in {f.rule for f in check_lock_graph(tmp_path, paths=[path])}
    path.write_text(source.replace("{noqa}", f"  # repro: noqa {rule}"))
    assert rule not in {f.rule for f in check_lock_graph(tmp_path, paths=[path])}


def test_arc001_fires_and_is_suppressible(tmp_path):
    config = ArchConfig(allowed={"low": frozenset(), "high": frozenset()}, baseline=set())
    for noqa, expected in (("", ["ARC001"]), ("  # repro: noqa ARC001", [])):
        root = tmp_path / ("plain" if not noqa else "noqa")
        (root / "low").mkdir(parents=True)
        (root / "high").mkdir()
        (root / "__init__.py").write_text("")
        (root / "low" / "__init__.py").write_text("")
        (root / "high" / "__init__.py").write_text("")
        (root / "high" / "engine.py").write_text("x = 1\n")
        (root / "low" / "util.py").write_text(f"from ..high import engine{noqa}\n")
        findings = check_architecture(root, config=config)
        assert [f.rule for f in findings] == expected


class TestPragmaHygiene:
    def run_rule(self, tmp_path, source):
        path = tmp_path / "mod.py"
        path.write_text(source)
        module = load_module(path, root=tmp_path)
        return list(PragmaHygieneRule().check(module, LintConfig()))

    def test_unknown_rule_code_is_reported(self, tmp_path):
        findings = self.run_rule(tmp_path, "x = 1  # repro: noqa ABC999\n")
        assert [f.rule for f in findings] == ["NOQ001"]
        assert "'ABC999'" in findings[0].message

    def test_malformed_rule_list_is_reported(self, tmp_path):
        # lowercase code fails the grammar → silently a bare noqa
        findings = self.run_rule(tmp_path, "x = 1  # repro: noqa lck001\n")
        assert [f.rule for f in findings] == ["NOQ001"]
        assert "bare noqa" in findings[0].message

    def test_valid_pragmas_and_docstring_mentions_pass(self, tmp_path):
        source = (
            '"""Docs may say ``# repro: noqa RULE1,RULE2`` freely."""\n'
            "x = 1  # repro: noqa DTY001\n"
            "y = 2  # repro: noqa TEN001 — prose after the code is fine\n"
            "z = 3  # repro: noqa\n"
        )
        assert self.run_rule(tmp_path, source) == []

    def test_noq001_is_not_self_suppressible(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1  # repro: noqa lck001\n")
        findings = lint_file(path, [PragmaHygieneRule()], root=tmp_path)
        assert [f.rule for f in findings] == ["NOQ001"]

    def test_every_known_rule_id_is_well_formed(self):
        import re

        # the grammar _NOQA_RE accepts — a rule id outside it would be
        # silently unsuppressable (this caught PERF001 vs the old 3-letter
        # pattern, which turned its pragmas into bare suppress-everything)
        for rule in known_rule_ids():
            assert re.fullmatch(r"[A-Z]{3,4}\d{3}", rule), rule
