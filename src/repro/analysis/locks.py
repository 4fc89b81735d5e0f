"""LCK001–LCK003 — static lock discipline for lock-owning classes.

A class opts into checking by assigning ``self._lock`` (a
``threading.Lock``/``RLock`` or compatible wrapper) in ``__init__`` — the
convention :class:`repro.ps.server.ParameterServer` follows.  For every such
class the checker verifies, per method:

* **LCK001** — every *touch* of guarded state happens while holding the
  lock.  Guarded state is (a) ``self._``-prefixed attributes (other than the
  lock itself) and (b) any attribute the class mutates outside ``__init__``
  — assigned, augmented, subscript-assigned, or used as the receiver of a
  method call (``self.tracker.apply_update(...)`` marks ``tracker``).
  Reads count: an unlocked read races with a locked writer.
* a *private* method (leading underscore) may touch state unlocked **iff**
  every in-class call site runs under the lock (computed by fixpoint over
  the intra-class call graph).  A private method that touches guarded state
  but has no in-class caller is unverifiable → **LCK002**.
* **LCK003** — a method calls (or reads a property of) another method that
  acquires ``self._lock`` while already holding it: ``threading.Lock`` is
  non-reentrant, so this self-deadlocks.
* **LCK006** — bare ``self._lock.acquire()`` / ``.release()`` calls (not
  via ``with``): a release outside a ``finally`` leaks the lock on any
  exception in between, and an acquire with no release at all in the same
  method never gives it back.  Statement-level acquire/release pairs *are*
  tracked as locked regions, so code between them is not double-reported
  as LCK001.

The analysis is lexical: it sees ``with self._lock:`` blocks and
statement-level ``.acquire()``/``.release()`` calls — which is exactly the
discipline the repo enforces.  Cross-*object* lock nesting (ABBA
deadlocks, lock-held channel blocking) is the whole-program
:mod:`repro.analysis.concurrency.lockgraph` checker's job (LCK004/LCK005).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .findings import Finding
from .linter import ModuleInfo, iter_python_files, load_module

__all__ = [
    "check_lock_discipline",
    "check_lock_discipline_module",
    "find_lock_classes",
]

#: receiver methods that never mutate the receiver — calling these does not
#: make the attribute "guarded state" by itself
_READONLY_METHODS = {"values", "items", "keys", "get", "copy", "index", "count"}


def _self_attr(node: ast.expr) -> "str | None":
    """``self.X`` → ``'X'`` (for a plain one-level attribute access)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _base_self_attr(node: ast.expr) -> "str | None":
    """Base attribute of a chain rooted at self: ``self.Y.Z[i]`` → ``'Y'``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        parent = node.value
        if isinstance(node, ast.Attribute) and isinstance(parent, ast.Name) and parent.id == "self":
            return node.attr
        node = parent
    return None


def _detect_lock_attr(init: "ast.FunctionDef | None") -> "str | None":
    """The opt-in lock attribute bound in ``__init__``, if any.

    Discipline checking is opt-in by convention: the class names its lock
    exactly ``self._lock`` (any value — ``threading.Lock``, ``RLock`` or a
    wrapper like :class:`repro.analysis.race.CheckedLock`).  Narrower
    special-purpose locks (``self._loss_lock`` guarding a single curve) do
    not enroll the whole class.
    """
    if init is None:
        return None
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        for tgt in node.targets:
            if _self_attr(tgt) == "_lock":
                return "_lock"
    return None


@dataclass
class _MethodFacts:
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    is_private: bool
    is_property: bool
    acquires_lock: bool = False
    #: guarded-state touches: (ast node, attr name, under_lock)
    touches: "list[tuple[ast.AST, str, bool]]" = field(default_factory=list)
    #: intra-class calls/property reads: (ast node, method name, under_lock)
    calls: "list[tuple[ast.AST, str, bool]]" = field(default_factory=list)
    #: bare ``self._lock.acquire()`` / ``.release()`` call nodes (LCK006)
    bare_acquires: "list[ast.Call]" = field(default_factory=list)
    bare_releases: "list[ast.Call]" = field(default_factory=list)


class _ClassAnalysis:
    """All per-method facts for one lock-owning class."""

    def __init__(self, cls: ast.ClassDef, lock_attr: str) -> None:
        self.cls = cls
        self.lock_attr = lock_attr
        self.methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt
        self.properties = {
            name
            for name, fn in self.methods.items()
            if any(isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list)
        }
        self.guarded = self._guarded_attrs()
        self.facts = {
            name: self._analyze_method(fn)
            for name, fn in self.methods.items()
            if name != "__init__"
        }

    # ------------------------------------------------------------------
    def _guarded_attrs(self) -> "set[str]":
        guarded: set[str] = set()
        for name, fn in self.methods.items():
            for node in ast.walk(fn):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    # method call on self.Y(.Z…): conservatively a mutation of Y
                    base = _base_self_attr(node.func.value)
                    if (
                        base is not None
                        and base not in self.methods
                        and node.func.attr not in _READONLY_METHODS
                    ):
                        guarded.add(base)
                for tgt in targets:
                    base = _base_self_attr(tgt)
                    if base is not None:
                        if name == "__init__" and _self_attr(tgt) == base:
                            continue  # plain construction in __init__
                        guarded.add(base)
        for fn in self.methods.values():
            for node in ast.walk(fn):
                attr = _self_attr(node)
                if attr is not None and attr.startswith("_") and not attr.startswith("__"):
                    guarded.add(attr)
        guarded.discard(self.lock_attr)
        guarded.difference_update(self.methods)
        return guarded

    # ------------------------------------------------------------------
    def _is_lock_with(self, node: ast.With) -> bool:
        return any(_self_attr(item.context_expr) == self.lock_attr for item in node.items)

    def _bare_lock_call(self, node: ast.AST, op: str) -> "ast.Call | None":
        """``self.<lock>.acquire()`` / ``.release()`` as a statement's call."""
        if isinstance(node, ast.Expr):
            node = node.value
        elif isinstance(node, ast.Assign):
            node = node.value
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == op
            and _self_attr(node.func.value) == self.lock_attr
        ):
            return node
        return None

    def _analyze_method(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> _MethodFacts:
        facts = _MethodFacts(
            node=fn,
            is_private=fn.name.startswith("_") and not fn.name.startswith("__"),
            is_property=fn.name in self.properties,
        )

        def visit(node: ast.AST, under: bool) -> None:
            if isinstance(node, ast.With) and self._is_lock_with(node):
                facts.acquires_lock = True
                for item in node.items:
                    visit(item, under)
                visit_block(node.body, True)
                return
            if isinstance(node, ast.Call):
                callee = _self_attr(node.func)
                if callee is not None and callee in self.methods:
                    facts.calls.append((node, callee, under))
                    for arg in node.args:
                        visit(arg, under)
                    for kw in node.keywords:
                        visit(kw, under)
                    return
            if isinstance(node, ast.Attribute):
                attr = _self_attr(node)
                if attr is not None:
                    if attr in self.guarded:
                        facts.touches.append((node, attr, under))
                    elif attr in self.properties:
                        facts.calls.append((node, attr, under))
                    return
            for child in ast.iter_child_nodes(node):
                visit(child, under)

        def visit_stmt(node: ast.stmt, under: bool) -> bool:
            """Visit one statement; return the lock state *after* it.

            Statement-level ``acquire()``/``release()`` toggle the lexical
            lock state so bare-locked regions are not misreported as
            LCK001; the calls themselves are recorded for LCK006.
            """
            acquire = self._bare_lock_call(node, "acquire")
            if acquire is not None:
                facts.acquires_lock = True
                facts.bare_acquires.append(acquire)
                return True
            release = self._bare_lock_call(node, "release")
            if release is not None:
                facts.bare_releases.append(release)
                return False
            if isinstance(node, ast.Try):
                after_body = visit_block(node.body, under)
                for handler in node.handlers:
                    visit_block(handler.body, under)
                visit_block(node.orelse, after_body)
                return visit_block(node.finalbody, after_body)
            if isinstance(node, (ast.If, ast.While)):
                visit(node.test, under)
                visit_block(node.body, under)
                visit_block(node.orelse, under)
                return under
            if isinstance(node, (ast.For, ast.AsyncFor)):
                visit(node.target, under)
                visit(node.iter, under)
                visit_block(node.body, under)
                visit_block(node.orelse, under)
                return under
            visit(node, under)
            return under

        def visit_block(stmts: "Sequence[ast.stmt]", under: bool) -> bool:
            for stmt in stmts:
                under = visit_stmt(stmt, under)
            return under

        visit_block(fn.body, False)
        return facts

    # ------------------------------------------------------------------
    def always_locked(self) -> "dict[str, bool]":
        """Fixpoint: which methods can only ever run with the lock held."""
        locked = {
            name: f.is_private and any(True for _ in self._call_sites(name))
            for name, f in self.facts.items()
        }
        changed = True
        while changed:
            changed = False
            for name, f in self.facts.items():
                if not locked.get(name):
                    continue
                for caller, _, under in self._call_sites(name):
                    if not under and not locked.get(caller, False):
                        locked[name] = False
                        changed = True
                        break
        return locked

    def _call_sites(self, method: str) -> "Iterator[tuple[str, ast.AST, bool]]":
        for caller, f in self.facts.items():
            for node, callee, under in f.calls:
                if callee == method:
                    yield caller, node, under

    # ------------------------------------------------------------------
    def findings(self, path: str) -> "Iterator[Finding]":
        locked = self.always_locked()
        cname = self.cls.name
        for name, f in self.facts.items():
            unlocked_touches = [(n, a) for n, a, under in f.touches if not under]
            if not unlocked_touches:
                continue
            if f.is_private:
                sites = list(self._call_sites(name))
                if not sites:
                    n, attr = unlocked_touches[0]
                    yield Finding(
                        "LCK002",
                        path,
                        n.lineno,
                        f"private method {cname}.{name} touches guarded state "
                        f"{attr!r} but has no in-class caller; lock discipline "
                        "is unverifiable",
                        n.col_offset,
                    )
                    continue
                if locked.get(name, False):
                    continue  # every caller holds the lock
            for n, attr in unlocked_touches:
                yield Finding(
                    "LCK001",
                    path,
                    n.lineno,
                    f"{cname}.{name} touches guarded state {attr!r} without "
                    f"holding self.{self.lock_attr}",
                    n.col_offset,
                )
        # Bare acquire/release hygiene (LCK006).
        for name, f in self.facts.items():
            if not f.bare_acquires and not f.bare_releases:
                continue
            finally_ids = {
                id(n)
                for t in ast.walk(f.node)
                if isinstance(t, ast.Try)
                for stmt in t.finalbody
                for n in ast.walk(stmt)
            }
            for call in f.bare_releases:
                if id(call) not in finally_ids:
                    yield Finding(
                        "LCK006",
                        path,
                        call.lineno,
                        f"{cname}.{name} releases self.{self.lock_attr} outside "
                        "a finally block — an exception before the release "
                        "leaks the lock (use `with self."
                        f"{self.lock_attr}:` or try/finally)",
                        call.col_offset,
                    )
            if f.bare_acquires and not f.bare_releases:
                for call in f.bare_acquires:
                    yield Finding(
                        "LCK006",
                        path,
                        call.lineno,
                        f"{cname}.{name} acquires self.{self.lock_attr} with a "
                        "bare .acquire() and never releases it in this method",
                        call.col_offset,
                    )
        # Non-reentrant self-deadlock: locked context calls a lock-taker.
        for caller, f in self.facts.items():
            for node, callee, under in f.calls:
                context_locked = under or (f.is_private and locked.get(caller, False))
                if context_locked and self.facts[callee].acquires_lock:
                    yield Finding(
                        "LCK003",
                        path,
                        node.lineno,
                        f"{cname}.{caller} calls {callee}() while holding "
                        f"self.{self.lock_attr}, and {callee}() re-acquires it "
                        "(threading.Lock is non-reentrant: deadlock)",
                        node.col_offset,
                    )


def find_lock_classes(tree: ast.Module) -> "list[tuple[ast.ClassDef, str]]":
    """All (class, lock attribute) pairs that opt into lock discipline."""
    out: list[tuple[ast.ClassDef, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        init = next(
            (s for s in node.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"),
            None,
        )
        lock_attr = _detect_lock_attr(init)
        if lock_attr is not None:
            out.append((node, lock_attr))
    return out


def check_lock_discipline_module(module: ModuleInfo) -> "list[Finding]":
    """Check every lock-owning class in one parsed module."""
    findings: list[Finding] = []
    for cls, lock_attr in find_lock_classes(module.tree):
        findings.extend(_ClassAnalysis(cls, lock_attr).findings(module.path))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def check_lock_discipline(
    root: "str | Path", paths: "Sequence[str | Path] | None" = None
) -> "list[Finding]":
    """Run the lock-discipline pillar over a source tree."""
    findings: list[Finding] = []
    targets = [Path(p) for p in paths] if paths is not None else list(iter_python_files(root))
    for path in targets:
        try:
            module = load_module(path, root=root)
        except SyntaxError:
            continue  # the lint pillar reports PAR001 for this file
        findings.extend(check_lock_discipline_module(module))
    return findings
