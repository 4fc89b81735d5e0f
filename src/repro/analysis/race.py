"""ThreadSanitizer-lite for lock-owning objects such as the parameter server.

The static checker (:mod:`repro.analysis.locks`) proves lexical lock
discipline; this module verifies it *dynamically* under real thread
interleavings.  :func:`instrument_server` swaps a live
:class:`~repro.ps.server.ParameterServer`'s lock for a
:class:`CheckedLock` (which remembers its owning thread) and wraps the
server's mutable state in access-recording proxies.  Any attribute access
that happens (a) without the current thread holding the lock and (b) while
more than one thread is alive is recorded as a :class:`RaceViolation` —
accesses during single-threaded setup/teardown are exempt, because a race
needs a second runner.  Nothing in ``src/`` starts a thread: the race
tests drive a server from plain worker threads.

Violations are *recorded*, not raised: the monitored run completes and the
test asserts on :attr:`RaceMonitor.violations` afterwards, so one racy
access does not mask the next.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "CheckedLock",
    "RaceMonitor",
    "RaceViolation",
    "GuardedProxy",
    "instrument_object",
    "instrument_server",
]


class CheckedLock:
    """A ``threading.Lock`` wrapper that knows which thread holds it."""

    def __init__(self) -> None:
        self._inner = threading.Lock()
        self._owner: "int | None" = None
        self.acquisitions = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._owner = threading.get_ident()
            self.acquisitions += 1
        return ok

    def release(self) -> None:
        self._owner = None
        self._inner.release()

    def __enter__(self) -> "CheckedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    def locked(self) -> bool:
        return self._inner.locked()


@dataclass(frozen=True)
class RaceViolation:
    """One unguarded access to protected state."""

    thread: str
    attr: str
    access: str  #: dotted access path, e.g. ``staleness_meter.update``

    def format(self) -> str:
        return f"[{self.thread}] touched {self.access} without holding the lock"


class RaceMonitor:
    """Collects :class:`RaceViolation` records (thread-safe)."""

    def __init__(self) -> None:
        self.violations: "list[RaceViolation]" = []
        self._mu = threading.Lock()
        self._enabled = True

    def record(self, attr: str, access: str) -> None:
        v = RaceViolation(threading.current_thread().name, attr, access)
        with self._mu:
            self.violations.append(v)

    def pause(self) -> None:
        """Stop recording (e.g. for a known single-threaded phase)."""
        self._enabled = False

    def resume(self) -> None:
        self._enabled = True

    @property
    def enabled(self) -> bool:
        return self._enabled

    def report(self) -> str:
        with self._mu:
            return "\n".join(v.format() for v in self.violations) or "<no violations>"


class GuardedProxy:
    """Wraps an object; every attribute access asserts the lock is held.

    Accesses while only one thread is alive are exempt — during
    single-threaded setup/evaluation no interleaving exists to race with.
    """

    __slots__ = ("_gp_obj", "_gp_lock", "_gp_monitor", "_gp_name")

    def __init__(self, obj: object, lock: CheckedLock, monitor: RaceMonitor, name: str) -> None:
        object.__setattr__(self, "_gp_obj", obj)
        object.__setattr__(self, "_gp_lock", lock)
        object.__setattr__(self, "_gp_monitor", monitor)
        object.__setattr__(self, "_gp_name", name)

    def _gp_check(self, access: str) -> None:
        lock: CheckedLock = object.__getattribute__(self, "_gp_lock")
        monitor: RaceMonitor = object.__getattribute__(self, "_gp_monitor")
        if (
            monitor.enabled
            and not lock.held_by_current_thread()
            and threading.active_count() > 1
        ):
            monitor.record(object.__getattribute__(self, "_gp_name"), access)

    def __getattr__(self, item: str):
        name = object.__getattribute__(self, "_gp_name")
        self._gp_check(f"{name}.{item}")
        return getattr(object.__getattribute__(self, "_gp_obj"), item)

    def __setattr__(self, item: str, value: object) -> None:
        name = object.__getattribute__(self, "_gp_name")
        self._gp_check(f"{name}.{item} = …")
        setattr(object.__getattribute__(self, "_gp_obj"), item, value)

    def __repr__(self) -> str:
        return f"GuardedProxy({object.__getattribute__(self, '_gp_obj')!r})"


def instrument_object(
    obj: object,
    attrs: "Sequence[str] | None" = None,
    monitor: "RaceMonitor | None" = None,
    name: "str | None" = None,
    registry: "object | None" = None,
    lock_attr: str = "_lock",
) -> RaceMonitor:
    """Instrument any lock-owning object for dynamic race detection.

    Replaces ``obj.<lock_attr>`` with a :class:`CheckedLock` and wraps each
    guarded attribute in a :class:`GuardedProxy`.  Guarded attributes come
    from, in priority order: the ``attrs`` argument, the class's
    ``__guarded_attrs__`` declaration (shared with the static checker —
    see :func:`repro.analysis.concurrency.guarded_attrs_of`), or nothing.

    Pass a :class:`repro.analysis.concurrency.LockRegistry` as ``registry``
    and the swapped-in lock is also enrolled for lock-order recording, so
    one instrumented run yields both race violations and order inversions::

        monitor = instrument_object(trainer.server, registry=registry)
        trainer.run()
        assert not monitor.violations, monitor.report()
        assert not registry.inversions(), registry.report()
    """
    if not hasattr(obj, lock_attr):
        raise AttributeError(
            f"{type(obj).__name__} has no {lock_attr!r}; not a lock-owning object"
        )
    monitor = monitor if monitor is not None else RaceMonitor()
    label = name if name is not None else type(obj).__name__
    if registry is not None:
        lock = registry.attach(obj, label, lock_attr=lock_attr)
    else:
        lock = CheckedLock()
        setattr(obj, lock_attr, lock)
    if attrs is not None:
        selected: Iterable[str] = attrs
    else:
        from .concurrency.registry import guarded_attrs_of

        declared = guarded_attrs_of(type(obj))
        selected = [a for a in (declared or ()) if hasattr(obj, a)]
    for a in selected:
        setattr(obj, a, GuardedProxy(getattr(obj, a), lock, monitor, a))
    return monitor


def instrument_server(
    server: object,
    attrs: "Sequence[str] | None" = None,
    monitor: "RaceMonitor | None" = None,
) -> RaceMonitor:
    """Instrument a live parameter server, in place: :func:`instrument_object`
    over the attributes its class declares in ``__guarded_attrs__``."""
    return instrument_object(server, attrs=attrs, monitor=monitor)
