"""Static lock-discipline checker tests against the lock fixtures."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.analysis.linter import load_module
from repro.analysis.locks import (
    check_lock_discipline,
    check_lock_discipline_module,
    find_lock_classes,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def check_fixture(name: str):
    return check_lock_discipline_module(load_module(FIXTURES / name, root=FIXTURES))


class TestBadServer:
    def test_exact_finding_counts(self):
        counts = Counter(f.rule for f in check_fixture("bad_locks.py"))
        assert counts == {"LCK001": 2, "LCK002": 1, "LCK003": 1}

    def test_unguarded_touches_name_attr_and_method(self):
        lck001 = [f for f in check_fixture("bad_locks.py") if f.rule == "LCK001"]
        messages = " | ".join(f.message for f in lck001)
        assert "'state'" in messages and "'_hits'" in messages
        assert all("put" in f.message for f in lck001)

    def test_orphan_private_method_flagged(self):
        (f,) = [f for f in check_fixture("bad_locks.py") if f.rule == "LCK002"]
        assert "_orphan" in f.message

    def test_nested_acquire_deadlock_flagged(self):
        (f,) = [f for f in check_fixture("bad_locks.py") if f.rule == "LCK003"]
        assert "get_unsafe" in f.message and "deadlock" in f.message


class TestGoodServer:
    def test_zero_findings(self):
        findings = check_fixture("good_locks.py")
        assert findings == [], [f.format() for f in findings]

    def test_private_under_lock_pattern_is_understood(self):
        # _put_locked touches guarded state with no lock of its own; the
        # call-graph fixpoint must prove every caller holds the lock.
        source = (FIXTURES / "good_locks.py").read_text()
        assert "_put_locked" in source


class TestJournalOutsideLock:
    """The tracker's dirty-index journal is mutated by ``apply_update`` and
    ``model_difference``, which the server only calls under its lock — so
    the checker infers ``tracker`` is guarded and flags any other reach."""

    def test_exact_finding_counts(self):
        findings = check_fixture("journal_outside_lock.py")
        assert Counter(f.rule for f in findings) == {"LCK001": 2}
        assert all("'tracker'" in f.message for f in findings)
        assert sorted(f.message.split()[0] for f in findings) == [
            "JournalServer.forget",
            "JournalServer.journal_depth",
        ]


class TestBareAcquire:
    """LCK006: bare .acquire()/.release() instead of ``with``."""

    def test_exact_finding_counts(self):
        counts = Counter(f.rule for f in check_fixture("bare_acquire.py"))
        assert counts == {"LCK006": 2}

    def test_release_outside_finally_flagged(self):
        findings = [f for f in check_fixture("bare_acquire.py") if "finally" in f.message]
        (f,) = findings
        assert "add" in f.message and "leaks the lock" in f.message

    def test_acquire_never_released_flagged(self):
        findings = [f for f in check_fixture("bare_acquire.py") if "never releases" in f.message]
        (f,) = findings
        assert "leak" in f.message

    def test_try_finally_pattern_accepted(self):
        # Tally.safe acquires bare but releases in a finally: no finding,
        # and the guarded mutation between acquire/release is not LCK001.
        rules = {f.rule for f in check_fixture("bare_acquire.py")}
        assert rules == {"LCK006"}
        assert all("safe" not in f.message for f in check_fixture("bare_acquire.py"))


class TestDiscovery:
    def test_only_lock_owning_classes_enroll(self):
        module = load_module(FIXTURES / "bad_locks.py", root=FIXTURES)
        names = [cls.name for cls, _ in find_lock_classes(module.tree)]
        assert names == ["BadServer"]

    def test_parameter_server_is_enrolled(self):
        module = load_module(SRC / "ps" / "server.py", root=SRC)
        names = [cls.name for cls, _ in find_lock_classes(module.tree)]
        assert "ParameterServer" in names

    def test_narrow_locks_do_not_enroll(self):
        # Tracer's _merge_lock guards only its buffer registry, not the
        # object; the `_lock` naming convention keeps it out of the checker.
        module = load_module(SRC / "obs" / "tracer.py", root=SRC)
        assert find_lock_classes(module.tree) == []


def test_src_tree_is_clean():
    findings = check_lock_discipline(SRC)
    assert findings == [], [f.format() for f in findings]
