"""LCK004–LCK005 — the whole-program lock-acquisition graph.

The per-class checker (:mod:`repro.analysis.locks`) proves discipline
*within* one lock owner; this module analyses lock nesting *across*
objects, which is where the sharded-PS / multi-shard world can deadlock:

* **nodes** are lock-owning classes — discovered by the ``self._lock``
  convention (:func:`repro.analysis.locks.find_lock_classes`) plus the
  explicit :data:`~repro.analysis.concurrency.registry.LOCK_CLASS_REGISTRY`
  for classes whose lock has another name;
* **edges** mean "a method of X can call into a lock-acquiring method of Y
  while holding X's lock", resolved through the intra-package call graph:
  attribute types are inferred from ``__init__`` assignments and
  annotations, and calls are followed through same-class methods, helper
  objects, and module-level functions (argument and annotation types bind
  function parameters).

Findings:

* **LCK004** — a cycle in the graph: two (or more) classes can acquire
  each other's locks in opposite orders, the classic ABBA deadlock.  One
  finding per cycle, anchored at one of its edges.
* **LCK005** — a channel operation (``send``/``recv``/``send_bytes``/
  ``recv_bytes``) reachable while a lock is held: a blocking wire call
  under a lock stalls every other thread contending for it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..findings import Finding
from ..linter import ModuleInfo, iter_python_files, load_module
from ..locks import find_lock_classes
from .registry import LOCK_CLASS_REGISTRY

__all__ = [
    "BLOCKING_METHODS",
    "LockEdge",
    "LockGraph",
    "build_lock_graph",
    "check_lock_graph",
]

#: callee names treated as potentially blocking channel operations
BLOCKING_METHODS = frozenset({"send", "recv", "send_bytes", "recv_bytes"})


def _self_attr(node: ast.expr) -> "str | None":
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _module_name(relpath: str) -> str:
    """``ps/server.py`` → ``ps.server``; ``comm/__init__.py`` → ``comm``."""
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _annotation_type_names(node: "ast.expr | None") -> "set[str]":
    """Candidate class names in an annotation (``"Ledger | None"`` → Ledger)."""
    names: set[str] = set()
    if node is None:
        return names
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id not in ("None", "Optional", "Union"):
            names.add(sub.id)
    return names


@dataclass(frozen=True)
class _Site:
    """One call or property-read site inside a method/function body."""

    kind: str  #: ``self`` | ``attr`` | ``name`` | ``func`` | ``prop``
    receiver: "str | None"  #: attr/param/alias name (None for ``func``)
    method: str  #: called method / function / property name
    node: ast.AST
    under: bool  #: lexically under the owning class's lock


@dataclass
class _MethodFacts:
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    sites: "list[_Site]" = field(default_factory=list)
    acquires: bool = False


@dataclass
class _ClassFacts:
    module: str
    name: str
    node: ast.ClassDef
    lock_attr: "str | None"
    methods: "dict[str, _MethodFacts]" = field(default_factory=dict)
    properties: "set[str]" = field(default_factory=set)
    #: attr name → candidate type names (bare identifiers)
    attr_types: "dict[str, set[str]]" = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}" if self.module else self.name


@dataclass
class _FunctionFacts:
    module: str
    name: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    params: "list[str]" = field(default_factory=list)
    ann_types: "dict[str, set[str]]" = field(default_factory=dict)
    sites: "list[_Site]" = field(default_factory=list)


@dataclass(frozen=True)
class LockEdge:
    """``src`` can acquire ``dst``'s lock while holding its own."""

    src: str  #: qualified class name
    dst: str
    path: str
    line: int
    col: int
    via: str  #: human description of the call chain step


@dataclass
class LockGraph:
    """The extracted whole-program lock-acquisition graph."""

    nodes: "dict[str, tuple[str, str]]"  #: qualname → (path, lock attr)
    edges: "list[LockEdge]"
    blocking: "list[Finding]"  #: LCK005 findings

    def cycles(self) -> "list[list[str]]":
        """Strongly connected components with ≥ 2 nodes, sorted."""
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for e in self.edges:
            adj.setdefault(e.src, set()).add(e.dst)
            adj.setdefault(e.dst, set())
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        onstack: set[str] = set()
        stack: list[str] = []
        out: list[list[str]] = []
        counter = [0]

        def strong(v: str) -> None:
            work = [(v, iter(sorted(adj[v])))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            onstack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        onstack.add(w)
                        work.append((w, iter(sorted(adj[w]))))
                        advanced = True
                        break
                    if w in onstack:
                        low[node] = min(low[node], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    if len(scc) > 1:
                        out.append(sorted(scc))

        for v in sorted(adj):
            if v not in index:
                strong(v)
        return sorted(out)


class _Program:
    """Parsed whole-tree facts: classes, functions, imports."""

    def __init__(self, root: "str | Path", paths: "Sequence[str | Path] | None" = None) -> None:
        self.root = Path(root)
        self.root_pkg = self.root.name
        self.modules: "dict[str, ModuleInfo]" = {}
        self.classes: "dict[tuple[str, str], _ClassFacts]" = {}
        self.classes_by_name: "dict[str, list[tuple[str, str]]]" = {}
        self.functions: "dict[tuple[str, str], _FunctionFacts]" = {}
        #: per module: bound name → (target module, symbol | None)
        self.imports: "dict[str, dict[str, tuple[str, str | None]]]" = {}
        targets = (
            [Path(p) for p in paths] if paths is not None else list(iter_python_files(root))
        )
        for path in targets:
            try:
                module = load_module(path, root=root)
            except SyntaxError:
                continue  # the lint pillar reports PAR001
            self._index_module(module)

    # -- indexing ------------------------------------------------------
    def _index_module(self, module: ModuleInfo) -> None:
        mod = _module_name(module.relpath)
        self.modules[mod] = module
        self.imports[mod] = self._collect_imports(module, mod)
        lock_attrs = {cls.name: attr for cls, attr in find_lock_classes(module.tree)}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                attr = lock_attrs.get(node.name)
                if attr is None:
                    for entry in LOCK_CLASS_REGISTRY:
                        if entry.module == mod and entry.cls == node.name:
                            attr = entry.lock_attr
                            break
                facts = self._analyze_class(mod, node, attr)
                self.classes[(mod, node.name)] = facts
                self.classes_by_name.setdefault(node.name, []).append((mod, node.name))
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[(mod, node.name)] = self._analyze_function(mod, node)

    def _collect_imports(self, module: ModuleInfo, mod: str) -> "dict[str, tuple[str, str | None]]":
        bound: dict[str, tuple[str, str | None]] = {}
        pkg = mod if (self.root / Path(*mod.split("."))).is_dir() else mod.rpartition(".")[0]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    base = pkg.split(".") if pkg else []
                    for _ in range(node.level - 1):
                        if base:
                            base.pop()
                    target = ".".join(base + (node.module.split(".") if node.module else []))
                elif node.module and node.module.split(".")[0] == self.root_pkg:
                    target = ".".join(node.module.split(".")[1:])
                else:
                    continue
                for alias in node.names:
                    # module vs symbol is disambiguated lazily at resolve time
                    bound[alias.asname or alias.name] = (target, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == self.root_pkg:
                        bound[alias.asname or parts[-1]] = (".".join(parts[1:]), None)
        return bound

    # -- per-class / per-function analysis -----------------------------
    def _analyze_class(self, mod: str, cls: ast.ClassDef, lock_attr: "str | None") -> _ClassFacts:
        facts = _ClassFacts(module=mod, name=cls.name, node=cls, lock_attr=lock_attr)
        fns = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        facts.properties = {
            name
            for name, fn in fns.items()
            if any(isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list)
        }
        for name, fn in fns.items():
            self._infer_attr_types(facts, fn)
            if name != "__init__":
                facts.methods[name] = self._collect_sites(fn, lock_attr)
        return facts

    def _infer_attr_types(self, facts: _ClassFacts, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        ann = {
            a.arg: _annotation_type_names(a.annotation)
            for a in fn.args.args + fn.args.kwonlyargs
            if a.annotation is not None
        }
        for node in ast.walk(fn):
            attr: "str | None" = None
            value: "ast.expr | None" = None
            names: set[str] = set()
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr = _self_attr(node.targets[0])
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                attr = _self_attr(node.target)
                value = node.value
                names |= _annotation_type_names(node.annotation)
            if attr is None:
                continue
            if isinstance(value, ast.Call):
                f = value.func
                if isinstance(f, ast.Name):
                    names.add(f.id)
                elif isinstance(f, ast.Attribute):
                    names.add(f.attr)
            elif isinstance(value, ast.Name):
                names |= ann.get(value.id, set())
            if names:
                facts.attr_types.setdefault(attr, set()).update(names)

    def _analyze_function(self, mod: str, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> _FunctionFacts:
        facts = _FunctionFacts(module=mod, name=fn.name, node=fn)
        facts.params = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
        facts.ann_types = {
            a.arg: _annotation_type_names(a.annotation)
            for a in fn.args.args + fn.args.kwonlyargs
            if a.annotation is not None
        }
        method = self._collect_sites(fn, None)
        facts.sites = method.sites
        return facts

    def _collect_sites(
        self, fn: "ast.FunctionDef | ast.AsyncFunctionDef", lock_attr: "str | None"
    ) -> _MethodFacts:
        facts = _MethodFacts(node=fn)

        def is_lock_with(node: ast.With) -> bool:
            return lock_attr is not None and any(
                _self_attr(item.context_expr) == lock_attr for item in node.items
            )

        def bare_lock_call(stmt: ast.stmt, op: str) -> bool:
            node = stmt.value if isinstance(stmt, (ast.Expr, ast.Assign)) else None
            return (
                lock_attr is not None
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == op
                and _self_attr(node.func.value) == lock_attr
            )

        def record_call(call: ast.Call, under: bool) -> None:
            f = call.func
            if isinstance(f, ast.Attribute):
                base = f.value
                if isinstance(base, ast.Name):
                    if base.id == "self":
                        facts.sites.append(_Site("self", None, f.attr, call, under))
                    else:
                        facts.sites.append(_Site("name", base.id, f.attr, call, under))
                    return
                attr = _self_attr(base)
                if attr is None and isinstance(base, (ast.Attribute, ast.Subscript)):
                    probe: ast.expr = base
                    while isinstance(probe, (ast.Attribute, ast.Subscript)):
                        found = _self_attr(probe)
                        if found is not None:
                            attr = found
                            break
                        probe = probe.value
                if attr is not None:
                    facts.sites.append(_Site("attr", attr, f.attr, call, under))
                return
            if isinstance(f, ast.Name):
                facts.sites.append(_Site("func", None, f.id, call, under))

        def visit(node: ast.AST, under: bool) -> None:
            if isinstance(node, ast.With) and is_lock_with(node):
                facts.acquires = True
                for item in node.items:
                    visit(item, under)
                visit_block(node.body, True)
                return
            if isinstance(node, ast.Call):
                record_call(node, under)
                for child in ast.iter_child_nodes(node):
                    if child is not node.func or not isinstance(child, ast.Attribute):
                        visit(child, under)
                    else:
                        visit(child.value, under)
                return
            if isinstance(node, ast.Attribute):
                attr = _self_attr(node.value)
                if attr is not None:
                    facts.sites.append(_Site("prop", attr, node.attr, node, under))
                    return
            for child in ast.iter_child_nodes(node):
                visit(child, under)

        def visit_stmt(stmt: ast.stmt, under: bool) -> bool:
            if bare_lock_call(stmt, "acquire"):
                facts.acquires = True
                return True
            if bare_lock_call(stmt, "release"):
                return False
            if isinstance(stmt, ast.Try):
                after = visit_block(stmt.body, under)
                for handler in stmt.handlers:
                    visit_block(handler.body, under)
                visit_block(stmt.orelse, after)
                return visit_block(stmt.finalbody, after)
            if isinstance(stmt, (ast.If, ast.While)):
                visit(stmt.test, under)
                visit_block(stmt.body, under)
                visit_block(stmt.orelse, under)
                return under
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                visit(stmt.target, under)
                visit(stmt.iter, under)
                visit_block(stmt.body, under)
                visit_block(stmt.orelse, under)
                return under
            visit(stmt, under)
            return under

        def visit_block(stmts: "Sequence[ast.stmt]", under: bool) -> bool:
            for stmt in stmts:
                under = visit_stmt(stmt, under)
            return under

        visit_block(fn.body, False)
        return facts

    # -- resolution ----------------------------------------------------
    def resolve_class(self, mod: str, name: str) -> "_ClassFacts | None":
        facts = self.classes.get((mod, name))
        if facts is not None:
            return facts
        target = self.imports.get(mod, {}).get(name)
        if target is not None:
            tmod, sym = target
            if sym is not None:
                facts = self.classes.get((tmod, sym))
                if facts is not None:
                    return facts
        keys = self.classes_by_name.get(name, [])
        if len(keys) == 1:
            return self.classes[keys[0]]
        return None

    def resolve_function(self, mod: str, name: str) -> "_FunctionFacts | None":
        facts = self.functions.get((mod, name))
        if facts is not None:
            return facts
        target = self.imports.get(mod, {}).get(name)
        if target is not None:
            tmod, sym = target
            if sym is not None:
                return self.functions.get((tmod, sym))
        return None

    def module_of_alias(self, mod: str, alias: str) -> "str | None":
        target = self.imports.get(mod, {}).get(alias)
        if target is None:
            return None
        tmod, sym = target
        if sym is None:
            return tmod
        candidate = f"{tmod}.{sym}" if tmod else sym
        return candidate if candidate in self.modules else None


class _GraphBuilder:
    """Expands under-lock call sites into cross-class lock edges."""

    def __init__(self, program: _Program) -> None:
        self.program = program
        self.edges: "dict[tuple[str, str, str, int, int], LockEdge]" = {}
        self.blocking: "dict[tuple[str, int, int, str], Finding]" = {}
        self._may_acquire: "dict[tuple[str, str], dict[str, bool]]" = {}

    # -- per-class may-acquire closure ---------------------------------
    def may_acquire(self, cls: _ClassFacts, method: str) -> bool:
        if cls.lock_attr is None:
            return False
        key = (cls.module, cls.name)
        closure = self._may_acquire.get(key)
        if closure is None:
            closure = {name: facts.acquires for name, facts in cls.methods.items()}
            changed = True
            while changed:
                changed = False
                for name, facts in cls.methods.items():
                    if closure.get(name):
                        continue
                    for site in facts.sites:
                        if site.kind == "self" and closure.get(site.method):
                            closure[name] = True
                            changed = True
                            break
            self._may_acquire[key] = closure
        # unknown methods (inherited, dynamic) are conservatively acquirers
        return closure.get(method, True)

    # -- expansion -----------------------------------------------------
    def build(self) -> None:
        for cls in self.program.classes.values():
            if cls.lock_attr is None:
                continue
            for mname, mfacts in cls.methods.items():
                seeds = [s for s in mfacts.sites if s.under]
                if not seeds:
                    continue
                visited: set = set()
                via = f"{cls.name}.{mname}"
                for site in seeds:
                    self._handle_site(cls, cls, site, None, via, visited)

    def _handle_site(
        self,
        origin: _ClassFacts,
        owner: "_ClassFacts | _FunctionFacts",
        site: _Site,
        env: "dict[str, set[str]] | None",
        via: str,
        visited: set,
    ) -> None:
        program = self.program
        if site.kind == "self" and isinstance(owner, _ClassFacts):
            target = owner.methods.get(site.method)
            if target is not None:
                self._expand_method(origin, owner, site.method, via, visited)
            return
        if site.kind == "func":
            self._handle_callable(origin, owner, site, env, via, visited)
            return
        if site.kind == "name" and isinstance(owner, _ClassFacts):
            alias_mod = program.module_of_alias(owner.module, site.receiver or "")
            if alias_mod is not None:
                fn = program.functions.get((alias_mod, site.method))
                if fn is not None:
                    self._expand_function(origin, fn, {}, via, visited)
                    return
            if site.method in BLOCKING_METHODS:
                self._flag_blocking(origin, owner.module, site, via)
            return
        # attr / prop / name-in-function: a receiver with candidate types
        types = self._receiver_types(owner, site, env)
        resolved: list[_ClassFacts] = []
        mod = owner.module
        for tname in sorted(types):
            target = program.resolve_class(mod, tname)
            if target is not None and target is not origin:
                resolved.append(target)
        if site.kind == "prop":
            for target in resolved:
                if (
                    target.lock_attr is not None
                    and site.method in target.properties
                    and self.may_acquire(target, site.method)
                ):
                    self._add_edge(origin, target, site, via, mod)
            return
        if site.method in BLOCKING_METHODS:
            self._flag_blocking(origin, mod, site, via)
            return
        for target in resolved:
            if target.lock_attr is not None and self.may_acquire(target, site.method):
                self._add_edge(origin, target, site, via, mod)
            target_method = target.methods.get(site.method)
            if target_method is not None:
                self._expand_method(origin, target, site.method, via, visited)
        return

    def _handle_callable(
        self,
        origin: _ClassFacts,
        owner: "_ClassFacts | _FunctionFacts",
        site: _Site,
        env: "dict[str, set[str]] | None",
        via: str,
        visited: set,
    ) -> None:
        program = self.program
        mod = owner.module
        # constructor calls never run under the callee's own lock
        if program.resolve_class(mod, site.method) is not None:
            return
        fn = program.resolve_function(mod, site.method)
        if fn is None:
            return
        call = site.node
        bound: dict[str, set[str]] = {}
        if isinstance(call, ast.Call):
            for param, arg in zip(fn.params, call.args):
                bound[param] = self._expr_types(owner, arg, env)
            for kw in call.keywords:
                if kw.arg is not None and kw.arg in fn.params:
                    bound[kw.arg] = self._expr_types(owner, kw.value, env)
        for param, names in fn.ann_types.items():
            bound.setdefault(param, set()).update(names)
        self._expand_function(origin, fn, bound, via, visited)

    def _expand_method(
        self,
        origin: _ClassFacts,
        owner: _ClassFacts,
        method: str,
        via: str,
        visited: set,
    ) -> None:
        key = ("m", owner.module, owner.name, method)
        if key in visited:
            return
        visited.add(key)
        facts = owner.methods.get(method)
        if facts is None:
            return
        step = f"{via} -> {owner.name}.{method}"
        for site in facts.sites:
            self._handle_site(origin, owner, site, None, step, visited)

    def _expand_function(
        self,
        origin: _ClassFacts,
        fn: _FunctionFacts,
        env: "dict[str, set[str]]",
        via: str,
        visited: set,
    ) -> None:
        key = ("f", fn.module, fn.name, tuple(sorted((k, tuple(sorted(v))) for k, v in env.items())))
        if key in visited:
            return
        visited.add(key)
        step = f"{via} -> {fn.name}()"
        for site in fn.sites:
            self._handle_site(origin, fn, site, env, step, visited)

    # -- helpers -------------------------------------------------------
    def _receiver_types(
        self,
        owner: "_ClassFacts | _FunctionFacts",
        site: _Site,
        env: "dict[str, set[str]] | None",
    ) -> "set[str]":
        if site.receiver is None:
            return set()
        if isinstance(owner, _ClassFacts):
            return set(owner.attr_types.get(site.receiver, set()))
        types = set(env.get(site.receiver, set())) if env else set()
        types |= owner.ann_types.get(site.receiver, set())
        return types

    def _expr_types(
        self,
        owner: "_ClassFacts | _FunctionFacts",
        expr: ast.expr,
        env: "dict[str, set[str]] | None",
    ) -> "set[str]":
        attr = _self_attr(expr)
        if attr is not None and isinstance(owner, _ClassFacts):
            return set(owner.attr_types.get(attr, set()))
        if isinstance(expr, ast.Name):
            if env and expr.id in env:
                return set(env[expr.id])
            if isinstance(owner, _FunctionFacts):
                return set(owner.ann_types.get(expr.id, set()))
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return {expr.func.id}
        return set()

    def _add_edge(
        self, origin: _ClassFacts, target: _ClassFacts, site: _Site, via: str, owner_mod: str
    ) -> None:
        module = self.program.modules.get(owner_mod)
        path = module.path if module is not None else owner_mod
        node = site.node
        key = (origin.qualname, target.qualname, path, node.lineno, node.col_offset)
        self.edges.setdefault(
            key,
            LockEdge(
                src=origin.qualname,
                dst=target.qualname,
                path=path,
                line=node.lineno,
                col=node.col_offset,
                via=f"{via} -> {target.name}.{site.method}",
            ),
        )

    def _flag_blocking(self, origin: _ClassFacts, mod: str, site: _Site, via: str) -> None:
        module = self.program.modules.get(mod)
        path = module.path if module is not None else mod
        node = site.node
        receiver = f"{site.receiver}." if site.receiver else ""
        key = (path, node.lineno, node.col_offset, site.method)
        self.blocking.setdefault(
            key,
            Finding(
                "LCK005",
                path,
                node.lineno,
                f"{via}: {receiver}{site.method}() can block on a channel "
                f"while self.{origin.lock_attr} is held — move wire I/O "
                "outside the locked region",
                node.col_offset,
            ),
        )


def build_lock_graph(
    root: "str | Path", paths: "Sequence[str | Path] | None" = None
) -> LockGraph:
    """Extract the whole-program lock-acquisition graph under ``root``."""
    program = _Program(root, paths=paths)
    builder = _GraphBuilder(program)
    builder.build()
    nodes: dict[str, tuple[str, str]] = {}
    for cls in program.classes.values():
        if cls.lock_attr is not None:
            module = program.modules.get(cls.module)
            nodes[cls.qualname] = (
                module.path if module is not None else cls.module,
                cls.lock_attr,
            )
    edges = sorted(builder.edges.values(), key=lambda e: (e.path, e.line, e.col, e.dst))
    blocking = sorted(builder.blocking.values(), key=lambda f: (f.path, f.line, f.col))
    return LockGraph(nodes=nodes, edges=edges, blocking=blocking)


def _cycle_findings(graph: LockGraph) -> "Iterable[Finding]":
    for scc in graph.cycles():
        members = set(scc)
        cycle_edges = [e for e in graph.edges if e.src in members and e.dst in members]
        if not cycle_edges:
            continue
        anchor = min(cycle_edges, key=lambda e: (e.path, e.line, e.col))
        ring = " -> ".join(scc + [scc[0]])
        yield Finding(
            "LCK004",
            anchor.path,
            anchor.line,
            f"potential ABBA deadlock: lock-acquisition cycle {ring} "
            f"(this edge: {anchor.via})",
            anchor.col,
        )


def check_lock_graph(
    root: "str | Path", paths: "Sequence[str | Path] | None" = None
) -> "list[Finding]":
    """Run the lock-graph pillar (LCK004 + LCK005) over a source tree."""
    program_graph = build_lock_graph(root, paths=paths)
    findings = list(_cycle_findings(program_graph)) + list(program_graph.blocking)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
