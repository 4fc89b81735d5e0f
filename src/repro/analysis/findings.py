"""Finding records.

Every pillar of the analysis suite (lint rules, the lock-discipline
checker, the layering checker, the sanitizer self-check) reports
:class:`Finding` objects so the CLI can merge, sort and format them
uniformly.  A finding is settled in one of two ways: the code is fixed,
or the rule's scope names the file as an owner of what the rule guards
(``LintConfig``'s prefixes, the layering matrix and ``ARCH_baseline.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One analysis finding, anchored to a source location."""

    rule: str  #: rule identifier, e.g. ``DTY001``
    path: str  #: path of the offending file (as given to the checker)
    line: int  #: 1-based line number
    message: str
    col: int = 0

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
