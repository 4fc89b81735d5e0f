"""Whole-program concurrency contracts.

Three pillars, one subpackage:

* :mod:`.lockgraph` — static whole-program lock-acquisition graph.
  **LCK004** flags cycles (potential ABBA deadlock); **LCK005** flags a
  channel ``send``/``recv`` reachable while a lock is held.
* :mod:`.runtime` — dynamic GoodLock-style order recorder.
  :class:`LockRegistry` timestamps per-thread nesting and reports
  inversions even when no deadlock manifested.
* :mod:`.arch` — architecture layering.  **ARC001** flags import edges
  outside the allowed-dependency matrix / committed baseline; **ARC002**
  flags module-level import cycles.

See ``docs/analysis.md`` for the rule catalog and the layering matrix.
"""

from __future__ import annotations

from .arch import (
    ALLOWED_DEPS,
    ArchConfig,
    ImportEdge,
    baseline_path,
    build_import_graph,
    check_architecture,
    load_baseline,
    matrix_is_acyclic,
    package_edges,
    write_baseline,
)
from .lockgraph import LockEdge, LockGraph, build_lock_graph, check_lock_graph
from .registry import LOCK_CLASS_REGISTRY, LockClassEntry, guarded_attrs_of
from .runtime import LockOrderEdge, LockOrderInversion, LockRegistry, RegisteredLock

__all__ = [
    "ALLOWED_DEPS",
    "ArchConfig",
    "ImportEdge",
    "LOCK_CLASS_REGISTRY",
    "LockClassEntry",
    "LockEdge",
    "LockGraph",
    "LockOrderEdge",
    "LockOrderInversion",
    "LockRegistry",
    "RegisteredLock",
    "baseline_path",
    "build_import_graph",
    "build_lock_graph",
    "check_architecture",
    "check_lock_graph",
    "guarded_attrs_of",
    "load_baseline",
    "matrix_is_acyclic",
    "package_edges",
    "write_baseline",
]
