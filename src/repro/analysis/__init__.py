"""Static and dynamic correctness tooling for the reproduction.

Four pillars (run together by ``python -m repro.analysis``):

* :mod:`repro.analysis.linter` — repo-specific AST lint rules over
  ``src/repro/**`` (RNG plumbing, mutable defaults, bare except, ``__all__``
  completeness, hot-path dtype hygiene, ``Tensor.data`` ownership, wire
  framing and copies, telemetry names, per-layer loops);
* :mod:`repro.analysis.locks` — static lock discipline per class
  (LCK001–003, bare-acquire LCK006), plus
  :mod:`repro.analysis.concurrency.lockgraph`, the whole-program
  lock-acquisition graph (ABBA cycles LCK004, lock-held channel I/O
  LCK005), and :mod:`repro.analysis.race` /
  :mod:`repro.analysis.concurrency.runtime`, the dynamic ThreadSanitizer-
  lite and GoodLock-style order-inversion harnesses;
* :mod:`repro.analysis.concurrency.arch` — architecture layering
  (ARC001–002) against the allowed-dependency matrix and the committed
  ``ARCH_baseline.json``;
* :mod:`repro.analysis.sanitize` — opt-in NaN/Inf and dtype-drift hooks
  over autograd ops, optimizer steps and compression codecs
  (``python -m repro run <exp> --sanitize``).

See ``docs/analysis.md`` for the rules, their fixtures, and how a finding
is settled (fixed, or the rule's scope names the owner — there is no
suppression comment).
"""

from __future__ import annotations

from .findings import Finding
from .linter import LintConfig, Rule, lint_file, lint_tree
from .locks import check_lock_discipline
from .race import (
    CheckedLock,
    GuardedProxy,
    RaceMonitor,
    RaceViolation,
    instrument_object,
    instrument_server,
)
from .sanitize import NumericFault, Sanitizer, sanitize, sanitizer_selfcheck

__all__ = [
    "CheckedLock",
    "Finding",
    "GuardedProxy",
    "LintConfig",
    "NumericFault",
    "RaceMonitor",
    "RaceViolation",
    "Rule",
    "Sanitizer",
    "check_lock_discipline",
    "instrument_object",
    "instrument_server",
    "lint_file",
    "lint_tree",
    "run_analysis",
    "sanitize",
    "sanitizer_selfcheck",
]


def run_analysis(
    root: "str | None" = None,
    lint: bool = True,
    locks: bool = True,
    sanitizer: bool = True,
    arch: bool = True,
    config: "LintConfig | None" = None,
) -> "list[Finding]":
    """Run every enabled pillar over ``root`` (default: the repro package).

    The ``locks`` pillar covers both the per-class discipline checker
    (LCK001–003, LCK006) and the whole-program lock graph (LCK004–005);
    the ``arch`` pillar enforces the layering matrix (ARC001–002).
    """
    from pathlib import Path

    from .concurrency import check_architecture, check_lock_graph

    if root is None:
        root = str(Path(__file__).resolve().parent.parent)
    findings: list[Finding] = []
    if lint:
        findings.extend(lint_tree(root, config=config))
    if locks:
        findings.extend(check_lock_discipline(root))
        findings.extend(check_lock_graph(root))
    if arch:
        findings.extend(check_architecture(root))
    if sanitizer:
        findings.extend(
            Finding("SAN001", "<sanitizer-selfcheck>", 1, problem)
            for problem in sanitizer_selfcheck()
        )
    return findings
