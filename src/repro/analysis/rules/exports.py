"""EXP002/EXP003 — every public definition is declared in ``__all__``.

``__all__`` decides what ``from repro.<pkg> import *`` and the harness's
experiment list see, and ``tests/test_public_api.py`` checks that every
name it lists resolves in every module.  A public definition left out of
it is invisible to all three.

* **EXP002**: a public top-level ``def``/``class`` is missing from
  ``__all__`` (only when the module declares one).
* **EXP003**: a module that defines public functions/classes has no
  ``__all__`` at all.

Defect in this tree: when the rules were written they found incomplete
``__all__`` lists across ``harness``, ``compression`` and ``core``.
Fixtures: ``bad_lint.py``'s ``helper`` and ``poke`` (EXP002),
``no_all.py`` (EXP003).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..linter import LintConfig, ModuleInfo, Rule

__all__ = ["AllConsistencyRule", "MissingAllRule"]


def _top_level_statements(tree: ast.Module) -> "Iterator[ast.stmt]":
    """Module-body statements, descending into top-level If/Try bodies."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If):
            stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body)
            stack.extend(node.orelse)
            stack.extend(node.finalbody)
            for h in node.handlers:
                stack.extend(h.body)


def _find_all(tree: ast.Module) -> "tuple[ast.stmt | None, list[str] | None]":
    """The ``__all__`` assignment node and its entries (None if absent/dynamic)."""
    for node in _top_level_statements(tree):
        target = None
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name) and tgt.id == "__all__":
                    target = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                target = node.value
        if target is None:
            continue
        if isinstance(target, (ast.List, ast.Tuple)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str) for e in target.elts
        ):
            return node, [e.value for e in target.elts]
        return node, None  # dynamic __all__: present but not checkable
    return None, None


class AllConsistencyRule(Rule):
    id = "EXP002"
    summary = "public top-level defs/classes must appear in __all__"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        if module.is_entry_point(config):
            return
        node, exported = _find_all(module.tree)
        if node is None or exported is None:
            return
        for stmt in _top_level_statements(module.tree):
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and stmt.name not in exported
            ):
                yield self.finding(
                    module,
                    stmt,
                    f"public {'class' if isinstance(stmt, ast.ClassDef) else 'function'} "
                    f"{stmt.name!r} is not listed in __all__",
                )


class MissingAllRule(Rule):
    id = "EXP003"
    summary = "library modules with public defs must declare __all__"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        if module.is_entry_point(config):
            return
        node, _ = _find_all(module.tree)
        if node is not None:
            return
        public = [
            stmt
            for stmt in _top_level_statements(module.tree)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
        ]
        if public:
            yield self.finding(
                module,
                public[0],
                f"module defines {len(public)} public name(s) but no __all__",
            )
