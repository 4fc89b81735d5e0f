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
from .perf import DecodeUnderLockRule, PerLayerLoopRule, WireCopyRule
from .exports import AllConsistencyRule, MissingAllRule, UndefinedExportRule
from .obs import TelemetryNameRule
from .pragma import PragmaHygieneRule
from .randomness import ModuleLevelRNGRule
from .style import BareExceptRule, MutableDefaultRule
from .tensor import TensorDataMutationRule

__all__ = ["RULE_CLASSES", "default_rules", "known_rule_ids", "rule_index"]

#: every registered rule class, in reporting order
RULE_CLASSES: "tuple[type[Rule], ...]" = (
    ModuleLevelRNGRule,
    MutableDefaultRule,
    BareExceptRule,
    UndefinedExportRule,
    AllConsistencyRule,
    MissingAllRule,
    MissingDtypeRule,
    TensorDataMutationRule,
    WireFramingRule,
    TelemetryNameRule,
    PerLayerLoopRule,
    DecodeUnderLockRule,
    WireCopyRule,
    PragmaHygieneRule,
)

#: rule ids reported by the non-lint pillars (lock discipline, lock graph,
#: layering, sanitizer, parse errors) — they have no Rule class
EXTRA_RULE_IDS: "tuple[str, ...]" = (
    "LCK001",
    "LCK002",
    "LCK003",
    "LCK004",
    "LCK005",
    "LCK006",
    "ARC001",
    "ARC002",
    "SAN001",
    "PAR001",
)


def known_rule_ids() -> "frozenset[str]":
    """Every rule id the suite can report (lint rules + pillar rules)."""
    return frozenset(rule_index()) | frozenset(EXTRA_RULE_IDS)


def default_rules() -> "list[Rule]":
    """Fresh instances of every registered rule."""
    return [cls() for cls in RULE_CLASSES]


def rule_index() -> "dict[str, type[Rule]]":
    """Map rule id -> class (for ``--select`` and docs)."""
    return {cls.id: cls for cls in RULE_CLASSES}
