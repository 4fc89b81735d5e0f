"""The explicit lock-owning-class registry.

The static checkers discover most lock owners by the ``self._lock``
convention (:func:`repro.analysis.locks.find_lock_classes`); classes whose
lock has a different name — a dataclass field, a narrow merge lock — opt
into the *whole-program* concurrency analysis here instead.  An entry only
enrolls the class as a node of the lock-acquisition graph (LCK004/LCK005);
it does **not** subject it to the per-class LCK001–003 discipline, whose
guarded-state inference assumes the ``_lock`` convention.

Runtime instrumentation reads the companion ``__guarded_attrs__`` class
declaration (see :func:`guarded_attrs_of`): a lock-owning class lists the
attributes its lock protects, and both :func:`repro.analysis.race
.instrument_object` and the self-consistency tests consume that single
source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LockClassEntry", "LOCK_CLASS_REGISTRY", "guarded_attrs_of"]


@dataclass(frozen=True)
class LockClassEntry:
    """One explicitly registered lock-owning class."""

    module: str  #: dotted module path relative to the package root, e.g. ``obs.tracer``
    cls: str  #: class name
    lock_attr: str  #: the attribute holding the lock, e.g. ``_merge_lock``


#: classes the ``self._lock`` convention cannot discover but that do own a
#: lock and therefore participate in the whole-program lock graph
LOCK_CLASS_REGISTRY: "tuple[LockClassEntry, ...]" = (
    # byte-accounting sink: dataclass field lock, shared by all channels
    LockClassEntry("compression.stats", "CompressionStats", "_mu"),
    # tracer: narrow lock guarding the cross-thread buffer list
    LockClassEntry("obs.tracer", "Tracer", "_merge_lock"),
    # parameter-server shard: inherits ``self._lock`` from ParameterServer
    # without assigning it in its own __init__, so convention discovery
    # (which only walks a class's own __init__) cannot see it
    LockClassEntry("ps.sharded", "ParameterShard", "_lock"),
    # elastic-membership directory: its lock is deliberately not named
    # ``_lock`` (it guards only bookkeeping and must never nest with the
    # server lock — see repro/ps/membership.py's lock discipline note)
    LockClassEntry("ps.membership", "WorkerDirectory", "_members_mu"),
)


def guarded_attrs_of(cls: type) -> "tuple[str, ...] | None":
    """The class's declared guarded attributes, or ``None`` if undeclared.

    The declaration is inherited-attribute aware: a subclass of a declared
    class (e.g. a test double over ``ParameterServer``) inherits the
    declaration unless it overrides ``__guarded_attrs__`` itself.
    """
    attrs = getattr(cls, "__guarded_attrs__", None)
    if attrs is None:
        return None
    return tuple(attrs)
