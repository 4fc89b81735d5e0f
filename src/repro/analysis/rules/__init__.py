"""Lint rule registry.

Rules live in small themed modules; :func:`default_rules` returns one fresh
instance of each.  To add a rule: subclass :class:`repro.analysis.linter.Rule`
in a module here and register the class in :data:`RULE_CLASSES`
(see ``docs/analysis.md``).
"""

from __future__ import annotations

from ..linter import Rule
from .comm import WireFramingRule
from .dtype import MissingDtypeRule
from .perf import PerLayerLoopRule, WireCopyRule
from .exports import AllConsistencyRule, MissingAllRule
from .obs import TelemetryNameRule
from .randomness import ModuleLevelRNGRule
from .style import BareExceptRule, MutableDefaultRule
from .tensor import TensorDataMutationRule

__all__ = [
    "PILLAR_RULES",
    "RULE_CLASSES",
    "default_rules",
    "known_rule_ids",
    "rule_summaries",
]

#: every registered rule class, in reporting order
RULE_CLASSES: "tuple[type[Rule], ...]" = (
    ModuleLevelRNGRule,
    MutableDefaultRule,
    BareExceptRule,
    AllConsistencyRule,
    MissingAllRule,
    MissingDtypeRule,
    TensorDataMutationRule,
    WireFramingRule,
    TelemetryNameRule,
    PerLayerLoopRule,
    WireCopyRule,
)

#: id -> summary of the rules reported by the non-lint pillars (lock
#: discipline, lock graph, layering, sanitizer, parse errors), which have
#: no Rule class
PILLAR_RULES: "dict[str, str]" = {
    "LCK001": "guarded state touched without holding the class lock",
    "LCK002": "private method touching guarded state has no in-class caller",
    "LCK003": "lock re-acquired while held (non-reentrant deadlock)",
    "LCK004": "cycle in the whole-program lock-acquisition graph (ABBA)",
    "LCK005": "channel send/recv reachable while a lock is held",
    "LCK006": "bare .acquire()/.release() without a finally",
    "ARC001": "import edge outside the layering matrix and baseline",
    "ARC002": "module-level import cycle",
    "SAN001": "sanitizer self-check failure",
    "PAR001": "file does not parse",
}


def rule_summaries() -> "dict[str, str]":
    """id -> one-line summary of every rule the suite can report."""
    return {**{cls.id: cls.summary for cls in RULE_CLASSES}, **PILLAR_RULES}


def known_rule_ids() -> "frozenset[str]":
    """Every rule id the suite can report (lint rules + pillar rules)."""
    return frozenset(rule_summaries())


def default_rules() -> "list[Rule]":
    """Fresh instances of every registered rule."""
    return [cls() for cls in RULE_CLASSES]
