"""Repo-specific AST lint engine.

A :class:`Rule` inspects one parsed module and yields findings; the engine
walks a source tree, parses each file once and runs every registered rule.
Rules are deliberately small and repo-aware — they encode invariants of
*this* codebase (hot-path dtype hygiene, RNG plumbing, ``Tensor.data``
ownership) rather than general style, which generic linters already cover.
There is no suppression comment: a finding is fixed, or the rule's scope
in :class:`LintConfig` names the file as an owner of what the rule guards.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .findings import Finding

__all__ = [
    "LintConfig",
    "ModuleInfo",
    "Rule",
    "iter_python_files",
    "lint_file",
    "lint_tree",
    "load_module",
    "numpy_aliases",
]

#: subpackages where allocation dtype and similar perf-sensitive rules apply
HOT_PATH_PREFIXES = ("autograd/", "compression/", "ps/", "optim/", "nn/", "data/")

#: the owners of ``Tensor.data`` writes: autograd and the optimizers, the
#: per-layer helpers everyone else calls, and ``Module``'s own checkpoint
#: restore and dtype conversion
TENSOR_MUTATION_ALLOWED = ("autograd/", "optim/", "core/layerops.py", "nn/module.py")

#: the only places allowed to do wire framing (struct, pipes, codec calls)
FRAMING_ALLOWED = ("comm/", "ps/codec.py")

#: subpackages where per-layer Python loops over whole-model state are banned
PERF_LOOP_PREFIXES = ("core/", "ps/", "exec/")

#: per-layer helpers over a model's parameters — allowed to loop (PERF001)
PERF_LOOP_ALLOWED = ("core/layerops.py",)

#: the wire modules: every payload crosses them with one copy (PERF003)
WIRE_COPY_PATHS = ("ps/codec.py", "comm/frames.py", "comm/socket.py", "comm/pipe.py")


@dataclass(frozen=True)
class LintConfig:
    """Knobs controlling path-scoped rules.

    Prefixes are matched against the module path *relative to the package
    root* (posix separators).  Tests point these at fixture directories.
    """

    hot_path_prefixes: "tuple[str, ...]" = HOT_PATH_PREFIXES
    tensor_mutation_allowed: "tuple[str, ...]" = TENSOR_MUTATION_ALLOWED
    framing_allowed: "tuple[str, ...]" = FRAMING_ALLOWED
    perf_loop_prefixes: "tuple[str, ...]" = PERF_LOOP_PREFIXES
    perf_loop_allowed: "tuple[str, ...]" = PERF_LOOP_ALLOWED
    wire_copy_paths: "tuple[str, ...]" = WIRE_COPY_PATHS
    #: basenames never linted for export rules (CLI entry points)
    entry_point_names: "tuple[str, ...]" = ("__main__.py",)


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source module handed to every rule."""

    path: str  #: path as reported in findings
    relpath: str  #: posix path relative to the package root ('' prefix-matched)
    tree: ast.Module

    def is_hot_path(self, config: LintConfig) -> bool:
        return self.relpath.startswith(config.hot_path_prefixes)

    def may_mutate_tensor_data(self, config: LintConfig) -> bool:
        return self.relpath.startswith(config.tensor_mutation_allowed)

    def may_do_wire_framing(self, config: LintConfig) -> bool:
        return self.relpath.startswith(config.framing_allowed)

    def in_perf_loop_scope(self, config: LintConfig) -> bool:
        return self.relpath.startswith(config.perf_loop_prefixes) and not self.relpath.startswith(
            config.perf_loop_allowed
        )

    def in_wire_copy_scope(self, config: LintConfig) -> bool:
        return self.relpath.startswith(config.wire_copy_paths)

    def is_entry_point(self, config: LintConfig) -> bool:
        return Path(self.relpath).name in config.entry_point_names


class Rule(ABC):
    """One lint rule: an id, a summary, and a check over a module."""

    id: str = "XXX000"
    summary: str = ""

    @abstractmethod
    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        """Yield findings for ``module``."""

    # Convenience for subclasses.
    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def numpy_aliases(tree: ast.Module) -> "set[str]":
    """Names the module binds to the ``numpy`` package (e.g. ``{'np'}``)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy":
                    aliases.add(a.asname or "numpy")
    return aliases


def load_module(path: "str | Path", root: "str | Path | None" = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises ``SyntaxError``)."""
    p = Path(path)
    tree = ast.parse(p.read_text(), filename=str(p))
    if root is not None:
        try:
            rel = p.resolve().relative_to(Path(root).resolve()).as_posix()
        except ValueError:
            rel = p.name
    else:
        rel = p.name
    return ModuleInfo(path=str(p), relpath=rel, tree=tree)


def iter_python_files(root: "str | Path") -> "Iterator[Path]":
    """Yield ``*.py`` files under ``root`` in sorted order."""
    rootp = Path(root)
    if rootp.is_file():
        yield rootp
        return
    yield from sorted(rootp.rglob("*.py"))


def lint_file(
    path: "str | Path",
    rules: Sequence[Rule],
    config: "LintConfig | None" = None,
    root: "str | Path | None" = None,
) -> "list[Finding]":
    """Run ``rules`` over one file."""
    config = config if config is not None else LintConfig()
    try:
        module = load_module(path, root=root)
    except SyntaxError as exc:
        return [
            Finding(
                rule="PAR001",
                path=str(path),
                line=exc.lineno or 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(module, config))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_tree(
    root: "str | Path",
    rules: "Sequence[Rule] | None" = None,
    config: "LintConfig | None" = None,
) -> "list[Finding]":
    """Run the lint pillar over every python file under ``root``."""
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    findings: list[Finding] = []
    for path in iter_python_files(root):
        findings.extend(lint_file(path, rules, config=config, root=root))
    return findings
