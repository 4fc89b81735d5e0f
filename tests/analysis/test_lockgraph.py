"""Whole-program lock-acquisition graph tests (LCK004/LCK005)."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.analysis.concurrency import build_lock_graph, check_lock_graph

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def fixture_findings(name: str):
    return check_lock_graph(FIXTURES, paths=[FIXTURES / name])


class TestAbbaCycle:
    def test_exactly_one_lck004(self):
        counts = Counter(f.rule for f in fixture_findings("abba.py"))
        assert counts == {"LCK004": 1}

    def test_finding_names_both_classes(self):
        (f,) = fixture_findings("abba.py")
        assert "abba.Ledger" in f.message and "abba.Auditor" in f.message
        assert "ABBA" in f.message

    def test_graph_structure(self):
        graph = build_lock_graph(FIXTURES, paths=[FIXTURES / "abba.py"])
        assert set(graph.nodes) == {"abba.Ledger", "abba.Auditor"}
        edges = {(e.src, e.dst) for e in graph.edges}
        assert ("abba.Ledger", "abba.Auditor") in edges
        assert ("abba.Auditor", "abba.Ledger") in edges
        assert graph.cycles() == [["abba.Auditor", "abba.Ledger"]]

    def test_edges_carry_call_path_witness(self):
        graph = build_lock_graph(FIXTURES, paths=[FIXTURES / "abba.py"])
        vias = {e.via for e in graph.edges}
        assert "Ledger.transfer -> Auditor.observe" in vias
        assert "Auditor.reconcile -> Ledger.balance" in vias


class TestShardAbbaCycle:
    """A deliberate cross-shard nesting inversion must be caught.

    The sharded parameter server stays cycle-free by fanning out one
    shard at a time; this fixture reintroduces the classic mistake —
    reading a sibling shard while holding your own lock, in both
    directions — and pins down that the graph checker reports it as
    exactly one LCK004 cycle."""

    def test_exactly_one_lck004(self):
        counts = Counter(f.rule for f in fixture_findings("shard_abba.py"))
        assert counts == {"LCK004": 1}

    def test_finding_names_both_shard_classes(self):
        (f,) = fixture_findings("shard_abba.py")
        assert "shard_abba.ShardAlpha" in f.message
        assert "shard_abba.ShardBeta" in f.message
        assert "ABBA" in f.message

    def test_edges_carry_cross_shard_witnesses(self):
        graph = build_lock_graph(FIXTURES, paths=[FIXTURES / "shard_abba.py"])
        assert set(graph.nodes) == {"shard_abba.ShardAlpha", "shard_abba.ShardBeta"}
        vias = {e.via for e in graph.edges}
        assert "ShardAlpha.apply -> ShardBeta.total" in vias
        assert "ShardBeta.rebalance -> ShardAlpha.total" in vias

    def test_dynamic_registry_records_the_inversion(self):
        import importlib.util

        from repro.analysis.concurrency import LockRegistry

        spec = importlib.util.spec_from_file_location(
            "shard_abba", FIXTURES / "shard_abba.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        registry = LockRegistry()
        module.drive(registry)
        inversions = registry.inversions()
        assert inversions, "both nesting orders ran; the registry must object"


class TestBlockingUnderLock:
    def test_exactly_three_lck005(self):
        counts = Counter(f.rule for f in fixture_findings("blocking_locks.py"))
        assert counts == {"LCK005": 3}

    def test_direct_send_and_recv_flagged(self):
        messages = [f.message for f in fixture_findings("blocking_locks.py")]
        assert any("push" in m and ".send()" in m for m in messages)
        assert any("pull" in m and ".recv()" in m for m in messages)

    def test_blocking_through_private_helper_flagged(self):
        # flush() holds the lock and calls _drain(), which sends: the
        # finding must surface the call chain, not just the leaf.
        (f,) = [f for f in fixture_findings("blocking_locks.py") if "flush" in f.message]
        assert "_drain" in f.message

    def test_snapshot_then_send_pattern_accepted(self):
        assert not any("safe_push" in f.message for f in fixture_findings("blocking_locks.py"))


def test_src_tree_has_no_cycles_or_blocking_calls():
    findings = check_lock_graph(SRC)
    assert findings == [], [f.format() for f in findings]


def test_src_tree_graph_enrolls_known_lock_owners():
    graph = build_lock_graph(SRC)
    # the `_lock` convention finds the PS; the explicit registry adds the
    # differently-named locks (CompressionStats._mu, Tracer._merge_lock)
    assert "ps.server.ParameterServer" in graph.nodes
    assert "compression.stats.CompressionStats" in graph.nodes
    assert "obs.tracer.Tracer" in graph.nodes
    # ParameterShard inherits its lock from ParameterServer.__init__, so
    # convention discovery can't see it — the registry entry must
    assert "ps.sharded.ParameterShard" in graph.nodes
