"""Per-rule linter tests against the good/bad fixture modules."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.analysis.findings import suppressed_rules
from repro.analysis.linter import LintConfig, lint_file
from repro.analysis.rules import default_rules, rule_index

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture config: everything is a hot path, nothing may mutate Tensor.data
FIXTURE_CONFIG = LintConfig(hot_path_prefixes=("",), tensor_mutation_allowed=())


def lint_fixture(name: str):
    return lint_file(FIXTURES / name, default_rules(), config=FIXTURE_CONFIG, root=FIXTURES)


class TestBadFixture:
    def test_exact_finding_counts(self):
        counts = Counter(f.rule for f in lint_fixture("bad_lint.py"))
        assert counts == {
            "RNG001": 1,
            "MUT001": 1,
            "EXC001": 1,
            "EXP001": 1,
            "EXP002": 2,
            "DTY001": 1,
            "TEN001": 1,
        }

    def test_messages_name_the_offender(self):
        findings = {f.rule: f for f in lint_fixture("bad_lint.py") if f.rule != "EXP002"}
        assert "np.random.rand" in findings["RNG001"].message
        assert "Generator" in findings["RNG001"].message
        assert "'values'" in findings["MUT001"].message and "leak" in findings["MUT001"].message
        assert "bare except" in findings["EXC001"].message
        assert "'missing_name'" in findings["EXP001"].message
        assert "np.zeros" in findings["DTY001"].message and "dtype" in findings["DTY001"].message
        assert "Tensor.data" in findings["TEN001"].message

    def test_exp002_lists_both_unexported_functions(self):
        names = sorted(
            f.message.split("'")[1] for f in lint_fixture("bad_lint.py") if f.rule == "EXP002"
        )
        assert names == ["helper", "poke"]

    def test_findings_carry_real_locations(self):
        for f in lint_fixture("bad_lint.py"):
            assert f.line > 0
            assert f.path.endswith("bad_lint.py")


class TestGoodFixture:
    def test_zero_findings(self):
        findings = lint_fixture("good_lint.py")
        assert findings == [], [f.format() for f in findings]

    def test_noqa_is_what_suppresses_the_mutation(self):
        # drop the pragma and TEN001 must fire: the clean result above is
        # the suppression working, not the rule missing the pattern
        source = (FIXTURES / "good_lint.py").read_text()
        assert "# repro: noqa TEN001" in source


class TestCommFixture:
    def test_exact_finding_counts(self):
        counts = Counter(f.rule for f in lint_fixture("bad_comm.py"))
        assert counts == {"COM001": 7}

    def test_messages_point_at_the_channel_layer(self):
        messages = [f.message for f in lint_fixture("bad_comm.py")]
        assert any("'struct'" in m for m in messages)
        assert any("'socket'" in m and "SocketChannel" in m for m in messages)
        assert any("'multiprocessing.connection'" in m for m in messages)
        assert any("'encode_message'" in m and "Channel" in m for m in messages)
        assert any("'decode_message'" in m for m in messages)

    def test_silent_inside_the_channel_layer(self):
        allowed = LintConfig(
            hot_path_prefixes=("",), tensor_mutation_allowed=(), framing_allowed=("",)
        )
        findings = lint_file(
            FIXTURES / "bad_comm.py", default_rules(), config=allowed, root=FIXTURES
        )
        assert not [f for f in findings if f.rule == "COM001"]


class TestObsFixture:
    def test_exact_finding_counts(self):
        counts = Counter(f.rule for f in lint_fixture("bad_obs.py"))
        assert counts == {"OBS001": 5}

    def test_messages_distinguish_the_failure_modes(self):
        messages = [f.message for f in lint_fixture("bad_obs.py") if f.rule == "OBS001"]
        # registered name spelled inline
        assert any("'worker.step'" in m and "constant" in m for m in messages)
        # valid format but unregistered
        assert any("'server.latency_s'" in m and "register it" in m for m in messages)
        # not even dot.separated lowercase
        assert any("'QueueDepth'" in m and "dot.separated" in m for m in messages)

    def test_constant_reference_is_clean(self):
        # the fixture's obs_names.WORKER_APPLY call must produce nothing
        names = [m.split("'")[1] for m in
                 (f.message for f in lint_fixture("bad_obs.py") if f.rule == "OBS001")]
        assert "worker.apply" not in names

    def test_fires_inside_obs_too(self):
        # no package is exempt: repro/obs references its own constants too
        import ast

        from repro.analysis.linter import ModuleInfo
        from repro.analysis.rules.obs import TelemetryNameRule

        src = "def f(tracer):\n    tracer.span('worker.step')\n"
        module = ModuleInfo(
            path="obs/export.py", relpath="obs/export.py", source=src,
            tree=ast.parse(src), lines=src.splitlines(),
        )
        findings = list(TelemetryNameRule().check(module, LintConfig()))
        assert [f.rule for f in findings] == ["OBS001"]

    def test_relative_codec_reexport_not_flagged(self):
        # ps/__init__.py re-exports the codec names via `from .codec import …`;
        # COM001 targets framing, not re-exports
        src = "from .codec import encode_message\n__all__ = ['encode_message']\n"
        path = FIXTURES / "bad_comm.py"  # any path outside framing_allowed
        import ast

        from repro.analysis.linter import ModuleInfo
        from repro.analysis.rules.comm import WireFramingRule

        module = ModuleInfo(
            path=str(path), relpath="ps/__init__.py", source=src,
            tree=ast.parse(src), lines=src.splitlines(),
        )
        assert list(WireFramingRule().check(module, LintConfig())) == []


class TestPerfFixture:
    PERF_CONFIG = LintConfig(
        hot_path_prefixes=("",), tensor_mutation_allowed=(),
        perf_loop_prefixes=("",), perf_loop_allowed=(),
    )

    def lint(self, name: str):
        return lint_file(FIXTURES / name, default_rules(), config=self.PERF_CONFIG, root=FIXTURES)

    def test_exact_finding_counts(self):
        counts = Counter(f.rule for f in self.lint("bad_perf.py"))
        assert counts == {"PERF001": 4}

    def test_messages_point_at_the_arena(self):
        messages = [f.message for f in self.lint("bad_perf.py")]
        assert any("'parameters_of(...)'" in m for m in messages)
        assert any("'gradients_of(...)'" in m for m in messages)
        assert all("LayerArena" in m for m in messages)

    def test_silent_on_the_reference_path(self):
        # core/layerops.py is the dict reference implementation and may loop
        allowed = LintConfig(
            hot_path_prefixes=("",), tensor_mutation_allowed=(),
            perf_loop_prefixes=("",), perf_loop_allowed=("bad_perf.py",),
        )
        findings = lint_file(
            FIXTURES / "bad_perf.py", default_rules(), config=allowed, root=FIXTURES
        )
        assert not [f for f in findings if f.rule == "PERF001"]

    def test_silent_outside_scoped_packages(self):
        # default scoping: only core/, ps/, exec/ are checked
        findings = lint_file(
            FIXTURES / "bad_perf.py", default_rules(), config=LintConfig(), root=FIXTURES
        )
        assert not [f for f in findings if f.rule == "PERF001"]


class TestDecodeLockFixture:
    #: framing allowed so COM001 stays out of the way; decode-lock scope
    #: widened to cover the fixture directory (defaults cover ps/, comm/)
    DECODE_CONFIG = LintConfig(
        hot_path_prefixes=("",), tensor_mutation_allowed=(),
        framing_allowed=("",), decode_lock_prefixes=("",),
    )

    def lint(self, name: str):
        return lint_file(
            FIXTURES / name, default_rules(), config=self.DECODE_CONFIG, root=FIXTURES
        )

    def test_exact_finding_counts(self):
        counts = Counter(f.rule for f in self.lint("bad_decode_lock.py"))
        assert counts == {"PERF002": 4}

    def test_messages_name_the_decoder(self):
        messages = [f.message for f in self.lint("bad_decode_lock.py")]
        assert any("'decode_frame(...)'" in m for m in messages)
        assert any("'decode_message(...)'" in m for m in messages)
        assert all("lock" in m for m in messages)

    def test_decode_outside_the_lock_is_clean(self):
        # the fixture's `clean` method decodes before acquiring — the rule
        # must anchor every finding to a line inside a with-lock body
        source = (FIXTURES / "bad_decode_lock.py").read_text().splitlines()
        for f in self.lint("bad_decode_lock.py"):
            assert "# PERF002" in source[f.line - 1]

    def test_silent_outside_scoped_packages(self):
        # default scoping: only ps/ and comm/ are checked
        cold = LintConfig(
            hot_path_prefixes=("",), tensor_mutation_allowed=(), framing_allowed=("",)
        )
        findings = lint_file(
            FIXTURES / "bad_decode_lock.py", default_rules(), config=cold, root=FIXTURES
        )
        assert not [f for f in findings if f.rule == "PERF002"]


class TestWireCopyFixture:
    #: framing allowed so COM001 stays out of the way; the wire-copy scope
    #: (four named modules by default) widened to the fixture directory
    WIRE_CONFIG = LintConfig(
        hot_path_prefixes=(), tensor_mutation_allowed=(),
        framing_allowed=("",), wire_copy_paths=("",),
    )

    def lint(self, config=None):
        return lint_file(
            FIXTURES / "bad_wire_copy.py", default_rules(),
            config=config or self.WIRE_CONFIG, root=FIXTURES,
        )

    def test_exact_finding_counts(self):
        assert Counter(f.rule for f in self.lint()) == {"PERF003": 7}

    def test_each_spelling_is_named(self):
        messages = [f.message for f in self.lint()]
        assert sum("'.tobytes()'" in m for m in messages) == 2
        assert sum("b\"\".join" in m for m in messages) == 2
        for what in ("encode_message(...)", "raw", "payload"):
            assert sum(f"encoded frame '{what}'" in m for m in messages) == 1

    def test_findings_sit_on_the_marked_lines(self):
        # small-header '+' chains, str.join and the sendmsg gather are clean
        source = (FIXTURES / "bad_wire_copy.py").read_text().splitlines()
        for f in self.lint():
            assert "# PERF003" in source[f.line - 1]

    def test_silent_outside_the_wire_modules(self):
        cold = LintConfig(hot_path_prefixes=(), tensor_mutation_allowed=(), framing_allowed=("",))
        assert not [f for f in self.lint(cold) if f.rule == "PERF003"]

    def test_default_scope_is_the_four_wire_modules(self):
        assert LintConfig().wire_copy_paths == (
            "ps/codec.py", "comm/frames.py", "comm/socket.py", "comm/pipe.py",
        )


class TestSuppressionSyntax:
    def test_bare_noqa_suppresses_all(self):
        assert suppressed_rules("x = 1  # repro: noqa") == set()

    def test_rule_list(self):
        assert suppressed_rules("x = 1  # repro: noqa TEN001,DTY001") == {"TEN001", "DTY001"}

    def test_no_pragma(self):
        assert suppressed_rules("x = 1  # plain comment") is None


class TestPathScoping:
    def test_dtype_rule_silent_outside_hot_paths(self):
        cold = LintConfig(hot_path_prefixes=("autograd/",), tensor_mutation_allowed=())
        findings = lint_file(FIXTURES / "bad_lint.py", default_rules(), config=cold, root=FIXTURES)
        assert not [f for f in findings if f.rule == "DTY001"]

    def test_tensor_rule_silent_in_allowed_dirs(self):
        allowed = LintConfig(hot_path_prefixes=("",), tensor_mutation_allowed=("",))
        findings = lint_file(
            FIXTURES / "bad_lint.py", default_rules(), config=allowed, root=FIXTURES
        )
        assert not [f for f in findings if f.rule == "TEN001"]


def test_rule_index_is_complete():
    idx = rule_index()
    assert set(idx) == {
        "RNG001",
        "MUT001",
        "EXC001",
        "EXP001",
        "EXP002",
        "EXP003",
        "DTY001",
        "TEN001",
        "COM001",
        "OBS001",
        "PERF001",
        "PERF002",
        "PERF003",
        "NOQ001",
    }
    for rule_id, cls in idx.items():
        assert cls.id == rule_id
        assert cls.summary
