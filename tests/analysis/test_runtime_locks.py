"""Dynamic lock-order recorder and generalized instrumentation tests."""

from __future__ import annotations

import importlib.util
import threading
from pathlib import Path

import pytest

from repro.analysis.concurrency import LockRegistry, RegisteredLock, guarded_attrs_of
from repro.analysis.linter import load_module
from repro.analysis.locks import find_lock_classes
from repro.analysis.race import RaceMonitor, instrument_object, instrument_server

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def load_fixture(name: str):
    spec = importlib.util.spec_from_file_location(name[:-3], FIXTURES / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLockRegistry:
    def test_register_is_idempotent(self):
        registry = LockRegistry()
        assert registry.register("ps") is registry.register("ps")
        assert registry.names == ("ps",)

    def test_registered_lock_is_with_able_and_checked(self):
        registry = LockRegistry()
        lock = registry.register("ps")
        assert isinstance(lock, RegisteredLock)
        with lock:
            assert lock.held_by_current_thread()
        assert not lock.locked()
        assert lock.acquisitions == 1

    def test_nesting_records_an_order_edge(self):
        registry = LockRegistry()
        a, b = registry.register("a"), registry.register("b")
        with a:
            with b:
                pass
        (edge,) = registry.order_edges()
        assert (edge.outer, edge.inner) == ("a", "b")
        assert registry.inversions() == []

    def test_both_orders_is_an_inversion_even_without_deadlock(self):
        # GoodLock property: sequential ABBA never deadlocks, but the
        # recorder still reports the inversion
        registry = LockRegistry()
        a, b = registry.register("a"), registry.register("b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        (inv,) = registry.inversions()
        assert {inv.first.outer, inv.first.inner} == {"a", "b"}
        assert registry.cycles() == [["a", "b"]]
        assert "inversion" in registry.report()

    def test_three_lock_ring_is_a_cycle_but_not_a_pairwise_inversion(self):
        registry = LockRegistry()
        a, b, c = (registry.register(n) for n in "abc")
        with a, b:
            pass
        with b, c:
            pass
        with c, a:
            pass
        assert registry.inversions() == []
        assert registry.cycles() == [["a", "b", "c"]]

    def test_per_thread_stacks_do_not_cross_talk(self):
        registry = LockRegistry()
        a, b = registry.register("a"), registry.register("b")
        barrier = threading.Barrier(2)

        def hold(lock):
            with lock:
                barrier.wait()
                barrier.wait()

        t1 = threading.Thread(target=hold, args=(a,))
        t2 = threading.Thread(target=hold, args=(b,))
        t1.start(), t2.start()
        t1.join(), t2.join()
        # concurrent but non-nested holds are not an ordering edge
        assert registry.order_edges() == []

    def test_attach_swaps_the_lock_in_place(self):
        class Owner:
            def __init__(self):
                self._lock = threading.Lock()

        owner = Owner()
        registry = LockRegistry()
        lock = registry.attach(owner, "owner")
        assert owner._lock is lock

    def test_attach_requires_a_lock_owning_object(self):
        registry = LockRegistry()
        with pytest.raises(AttributeError, match="not a lock-owning object"):
            registry.attach(object(), "nope")


class TestAbbaFixtureDynamic:
    def test_drive_produces_an_inversion(self):
        abba = load_fixture("abba.py")
        registry = LockRegistry()
        abba.drive(registry)
        (inv,) = registry.inversions()
        assert {inv.first.outer, inv.first.inner} == {"auditor", "ledger"}
        assert registry.cycles() == [["auditor", "ledger"]]


class TestInstrumentObject:
    def make_server(self):
        import numpy as np

        from repro.ps.server import ParameterServer

        theta0 = {"w": np.zeros(4, dtype=np.float32)}
        return ParameterServer(theta0, num_workers=1)

    def test_guarded_attrs_declaration_is_used(self):
        server = self.make_server()
        monitor = instrument_object(server)
        # unguarded touch while a second thread is alive → violation
        release = threading.Event()
        t = threading.Thread(target=release.wait)
        t.start()
        try:
            server.staleness_meter.update(1.0)
        finally:
            release.set()
            t.join()
        assert monitor.violations
        assert monitor.violations[0].attr == "staleness_meter"

    def test_registry_integration_enrolls_the_swapped_lock(self):
        server = self.make_server()
        registry = LockRegistry()
        monitor = instrument_object(server, registry=registry, name="ps")
        assert isinstance(monitor, RaceMonitor)
        assert registry.names == ("ps",)
        assert isinstance(server._lock, RegisteredLock)

    def test_rejects_lockless_objects(self):
        with pytest.raises(AttributeError, match="not a lock-owning object"):
            instrument_object(object())

    def test_instrument_server_wrapper_still_works(self):
        server = self.make_server()
        monitor = instrument_server(server)
        with server._lock:
            server.staleness_meter.update(1.0)  # guarded: no violation
        assert monitor.violations == []


class TestRegistrationHooks:
    def make_server(self):
        import numpy as np

        from repro.ps.server import ParameterServer

        theta0 = {"w": np.zeros(4, dtype=np.float32)}
        return ParameterServer(theta0, num_workers=1)

    def test_parameter_server_register_lock(self):
        server = self.make_server()
        registry = LockRegistry()
        server.register_lock(registry)
        assert registry.names == ("ps",)
        assert isinstance(server._lock, RegisteredLock)

    def test_server_service_register_locks(self):
        from repro.comm.service import ServerService

        service = ServerService(self.make_server())
        registry = LockRegistry()
        service.register_locks(registry)
        # the server's lock, then the directory the service built for it
        assert registry.names == ("ps", "ps.membership")


class TestGuardedAttrsConsistency:
    def test_declaration_matches_static_inference_for_parameter_server(self):
        # the satellite contract: __guarded_attrs__ and what the static
        # checker infers as lock-guarded state must agree
        from repro.analysis.locks import _ClassAnalysis
        from repro.ps.server import ParameterServer

        declared = set(guarded_attrs_of(ParameterServer))
        module = load_module(SRC / "ps" / "server.py", root=SRC)
        ((cls, lock_attr),) = [
            (c, a) for c, a in find_lock_classes(module.tree) if c.name == "ParameterServer"
        ]
        inferred = _ClassAnalysis(cls, lock_attr).guarded
        assert declared <= inferred, (
            "declared guarded attrs the checker does not see as guarded: "
            f"{sorted(declared - inferred)}"
        )

    def test_declaration_is_inherited_by_test_doubles(self):
        from repro.ps.server import ParameterServer

        class Double(ParameterServer):
            pass

        assert guarded_attrs_of(Double) == ("tracker", "staleness_meter", "worker_staleness")

    def test_undeclared_classes_return_none(self):
        assert guarded_attrs_of(object) is None
