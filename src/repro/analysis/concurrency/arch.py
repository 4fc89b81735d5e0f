"""ARC001–ARC002 — architecture layering enforcement.

The last three PRs earned clean layer seams (``analysis → obs → exec →
comm → ps/core/arena``); this checker keeps them.  It extracts the
*runtime* import graph of the tree — module-level ``import``/``from``
statements, skipping ``if TYPE_CHECKING:`` blocks and function-local lazy
imports, because only load-time imports create load-order coupling and
cycles — aggregates it to top-level packages, and verifies:

* **ARC001** — an import edge between packages that is neither allowed by
  the layering matrix (:data:`ALLOWED_DEPS`) nor grandfathered in the
  committed baseline (``src/repro/analysis/ARCH_baseline.json``).  New
  cross-layer dependencies must be added to the matrix (a deliberate
  architecture decision) or they fail CI.
* **ARC002** — a cycle in the module-level runtime import graph.  The
  tree is import-cycle-free today and stays that way.

The baseline records the current package edge set; edges in the baseline
but no longer allowed by the matrix are "grandfathered" debt, listed by
``python -m repro.analysis arch`` so it can be burned down deliberately.
Findings honour ``# repro: noqa ARC001`` on the import line.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..findings import Finding, filter_suppressed
from ..linter import ModuleInfo, iter_python_files, load_module

__all__ = [
    "ALLOWED_DEPS",
    "ArchConfig",
    "ImportEdge",
    "baseline_path",
    "build_import_graph",
    "check_architecture",
    "load_baseline",
    "matrix_is_acyclic",
    "package_edges",
    "write_baseline",
]

#: the layering matrix: package → packages it may import at runtime.
#: ``"."`` is the package root (``repro/__init__`` and ``__main__``) —
#: entry points sit above every layer.  The matrix is a DAG (enforced by
#: :func:`matrix_is_acyclic` and a unit test); known violations of the
#: ideal layering live in the committed baseline as grandfathered debt,
#: not here.
ALLOWED_DEPS: "Mapping[str, frozenset[str]]" = {
    ".": frozenset(
        {
            "analysis",
            "autograd",
            "comm",
            "compression",
            "core",
            "data",
            "exec",
            "harness",
            "metrics",
            "nn",
            "obs",
            "optim",
            "ps",
            "sim",
        }
    ),
    "analysis": frozenset(),  # tooling: runtime-imports nothing (lazy only)
    "autograd": frozenset(),
    "comm": frozenset({"compression", "core", "obs", "ps"}),
    "compression": frozenset(),
    "core": frozenset({"autograd", "compression", "nn", "optim"}),
    "data": frozenset(),
    "exec": frozenset(
        {"comm", "compression", "core", "data", "metrics", "nn", "obs", "optim", "ps", "sim"}
    ),
    "harness": frozenset(
        {
            "autograd",
            "comm",
            "core",
            "data",
            "exec",
            "metrics",
            "nn",
            "obs",
            "optim",
            "ps",
            "sim",
        }
    ),
    "metrics": frozenset({"autograd", "core", "nn"}),
    "nn": frozenset({"autograd"}),
    "obs": frozenset({"metrics"}),
    "optim": frozenset({"autograd", "nn"}),
    "ps": frozenset(
        {"autograd", "compression", "core", "data", "metrics", "nn", "obs", "optim"}
    ),
    "sim": frozenset(),  # the cost models: cluster, network, analysis
}


@dataclass(frozen=True)
class ImportEdge:
    """One module-level runtime import between two in-tree modules."""

    src: str  #: dotted module (relative to the tree root), e.g. ``ps.server``
    dst: str
    path: str
    line: int
    col: int = 0
    #: owning top-level packages; ``"."`` for root modules (``__main__`` etc.)
    src_package: str = "."
    dst_package: str = "."


@dataclass
class ArchConfig:
    """Layering matrix + baseline used by :func:`check_architecture`."""

    allowed: "Mapping[str, frozenset[str]]" = field(default_factory=lambda: ALLOWED_DEPS)
    #: grandfathered package edges; ``None`` → load the committed baseline
    baseline: "set[tuple[str, str]] | None" = None


def baseline_path() -> Path:
    """Location of the committed baseline next to the analysis package."""
    return Path(__file__).resolve().parent.parent / "ARCH_baseline.json"


def load_baseline(path: "str | Path | None" = None) -> "set[tuple[str, str]]":
    """The package edge set recorded in the baseline file (empty if absent)."""
    p = Path(path) if path is not None else baseline_path()
    if not p.exists():
        return set()
    payload = json.loads(p.read_text())
    return {
        (src, dst)
        for src, dsts in payload.get("package_edges", {}).items()
        for dst in dsts
    }


def write_baseline(
    edges: "Mapping[tuple[str, str], Sequence[ImportEdge]]",
    path: "str | Path | None" = None,
    allowed: "Mapping[str, frozenset[str]] | None" = None,
) -> Path:
    """Write the current package edge set as the new baseline."""
    allowed = allowed if allowed is not None else ALLOWED_DEPS
    by_src: dict[str, list[str]] = {}
    for src, dst in sorted(edges):
        by_src.setdefault(src, []).append(dst)
    grandfathered = sorted(
        f"{src} -> {dst}" for src, dst in edges if dst not in allowed.get(src, frozenset())
    )
    payload = {
        "_comment": (
            "Package-level runtime import graph of src/repro, committed as the "
            "architecture baseline.  CI fails on any edge not in this file or "
            "in repro.analysis.concurrency.arch.ALLOWED_DEPS.  Regenerate "
            "deliberately with: python -m repro.analysis arch --update-baseline"
        ),
        "package_edges": by_src,
        "grandfathered": grandfathered,
    }
    p = Path(path) if path is not None else baseline_path()
    p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return p


def _module_name(relpath: str) -> str:
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _runtime_imports(tree: ast.Module) -> "Iterator[ast.stmt]":
    """Module-level imports that execute at load time.

    Skips ``if TYPE_CHECKING:`` bodies; descends into top-level ``try``
    blocks (optional-dependency imports still execute).
    """
    def walk(stmts: "Sequence[ast.stmt]") -> "Iterator[ast.stmt]":
        for node in stmts:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node
            elif isinstance(node, ast.If):
                test = node.test
                name = (
                    test.id
                    if isinstance(test, ast.Name)
                    else test.attr
                    if isinstance(test, ast.Attribute)
                    else None
                )
                if name == "TYPE_CHECKING":
                    continue
                yield from walk(node.body)
                yield from walk(node.orelse)
            elif isinstance(node, ast.Try):
                yield from walk(node.body)
                for handler in node.handlers:
                    yield from walk(handler.body)
                yield from walk(node.orelse)
                yield from walk(node.finalbody)

    yield from walk(tree.body)


def build_import_graph(
    root: "str | Path", paths: "Sequence[str | Path] | None" = None
) -> "tuple[list[ImportEdge], dict[str, ModuleInfo]]":
    """Runtime import edges between modules inside the tree."""
    rootp = Path(root)
    root_pkg = rootp.name
    modules: dict[str, ModuleInfo] = {}
    parsed: list[tuple[str, ModuleInfo]] = []
    pkg_of: dict[str, str] = {}
    targets = [Path(p) for p in paths] if paths is not None else list(iter_python_files(root))
    for path in targets:
        try:
            module = load_module(path, root=root)
        except SyntaxError:
            continue  # PAR001 is the lint pillar's job
        mod = _module_name(module.relpath)
        modules[mod] = module
        parsed.append((mod, module))
        parts = Path(module.relpath).parts
        pkg_of[mod] = parts[0] if len(parts) > 1 else "."
    names = set(modules)

    def resolve_target(mod: str, node: ast.stmt) -> "Iterator[str]":
        is_pkg = (rootp / Path(*mod.split("."))).is_dir() if mod else True
        pkg = mod if is_pkg else mod.rpartition(".")[0]
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = pkg.split(".") if pkg else []
                for _ in range(node.level - 1):
                    if base:
                        base.pop()
                target = ".".join(base + (node.module.split(".") if node.module else []))
            elif node.module and node.module.split(".")[0] == root_pkg:
                target = ".".join(node.module.split(".")[1:])
            else:
                return
            for alias in node.names:
                sub = f"{target}.{alias.name}" if target else alias.name
                if sub in names:
                    yield sub
                elif target in names:
                    yield target
                elif target == "" and alias.name in names:
                    yield alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != root_pkg:
                    continue
                target = ".".join(parts[1:])
                if target in names:
                    yield target

    edges: list[ImportEdge] = []
    seen: set[tuple[str, str, int]] = set()
    for mod, module in parsed:
        for node in _runtime_imports(module.tree):
            for target in resolve_target(mod, node):
                if target == mod:
                    continue
                key = (mod, target, node.lineno)
                if key in seen:
                    continue
                seen.add(key)
                edges.append(
                    ImportEdge(
                        mod,
                        target,
                        module.path,
                        node.lineno,
                        node.col_offset,
                        pkg_of[mod],
                        pkg_of[target],
                    )
                )
    edges.sort(key=lambda e: (e.path, e.line, e.dst))
    return edges, modules


def package_edges(
    edges: "Sequence[ImportEdge]",
) -> "dict[tuple[str, str], list[ImportEdge]]":
    """Aggregate module edges to cross-package edges with witnesses."""
    out: dict[tuple[str, str], list[ImportEdge]] = {}
    for e in edges:
        if e.src_package != e.dst_package:
            out.setdefault((e.src_package, e.dst_package), []).append(e)
    return out


def matrix_is_acyclic(allowed: "Mapping[str, frozenset[str]] | None" = None) -> bool:
    """True iff the layering matrix itself contains no dependency cycle."""
    allowed = allowed if allowed is not None else ALLOWED_DEPS
    state: dict[str, int] = {}

    def visit(node: str) -> bool:
        mark = state.get(node, 0)
        if mark == 1:
            return False
        if mark == 2:
            return True
        state[node] = 1
        for nxt in allowed.get(node, frozenset()):
            if not visit(nxt):
                return False
        state[node] = 2
        return True

    return all(visit(pkg) for pkg in allowed)


def _module_cycles(edges: "Sequence[ImportEdge]") -> "list[list[str]]":
    adj: dict[str, set[str]] = {}
    for e in edges:
        adj.setdefault(e.src, set()).add(e.dst)
        adj.setdefault(e.dst, set())
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    onstack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
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
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1:
                    sccs.append(sorted(scc))

    for v in sorted(adj):
        if v not in index:
            strong(v)
    return sorted(sccs)


def check_architecture(
    root: "str | Path",
    config: "ArchConfig | None" = None,
    paths: "Sequence[str | Path] | None" = None,
) -> "list[Finding]":
    """Run the layering pillar (ARC001 + ARC002) over a source tree."""
    config = config if config is not None else ArchConfig()
    baseline = config.baseline if config.baseline is not None else load_baseline()
    edges, modules = build_import_graph(root, paths=paths)
    findings: list[Finding] = []

    for (src, dst), witnesses in sorted(package_edges(edges).items()):
        if dst in config.allowed.get(src, frozenset()) or (src, dst) in baseline:
            continue
        anchor = witnesses[0]
        findings.append(
            Finding(
                "ARC001",
                anchor.path,
                anchor.line,
                f"layering violation: package {src!r} imports {dst!r} "
                f"({len(witnesses)} import(s)); allowed for {src!r}: "
                f"{sorted(config.allowed.get(src, frozenset())) or '[]'} — add the "
                "edge to the matrix deliberately or refactor the dependency",
                anchor.col,
            )
        )

    for scc in _module_cycles(edges):
        members = set(scc)
        cycle_edges = [e for e in edges if e.src in members and e.dst in members]
        anchor = min(cycle_edges, key=lambda e: (e.path, e.line))
        ring = " -> ".join(scc + [scc[0]])
        findings.append(
            Finding(
                "ARC002",
                anchor.path,
                anchor.line,
                f"module-level import cycle: {ring}",
                anchor.col,
            )
        )

    by_path: dict[str, list[Finding]] = {}
    for f in findings:
        by_path.setdefault(f.path, []).append(f)
    kept: list[Finding] = []
    for path, group in by_path.items():
        module = next((m for m in modules.values() if m.path == path), None)
        if module is None:
            kept.extend(group)
        else:
            kept.extend(filter_suppressed(group, module.lines))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept
