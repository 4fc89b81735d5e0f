"""CLI for the analysis suite: ``python -m repro.analysis``.

Runs all four pillars (lint, lock discipline + lock graph, layering,
sanitizer self-check) over ``src/repro/**`` and exits non-zero when
anything is found.  Usage::

    python -m repro.analysis                  # full suite over the package
    python -m repro.analysis path/to/dir      # pillars over another tree
    python -m repro.analysis --no-sanitize    # skip the runtime self-check
    python -m repro.analysis --select DTY001,LCK004
    python -m repro.analysis --list-rules
    python -m repro.analysis --format json    # one JSON finding per line

Subcommands::

    python -m repro.analysis graph [root]     # dump the lock-acquisition graph
    python -m repro.analysis arch [root]      # layering report; --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import run_analysis
from .findings import Finding
from .rules import known_rule_ids, rule_index

#: one-line semantics for rules reported by the non-lint pillars
_PILLAR_RULES = (
    ("LCK001", "guarded state touched without holding the class lock"),
    ("LCK002", "private method touching guarded state has no in-class caller"),
    ("LCK003", "lock re-acquired while held (non-reentrant deadlock)"),
    ("LCK004", "cycle in the whole-program lock-acquisition graph (ABBA)"),
    ("LCK005", "channel send/recv reachable while a lock is held"),
    ("LCK006", "bare .acquire()/.release() without a finally"),
    ("ARC001", "import edge outside the layering matrix and baseline"),
    ("ARC002", "module-level import cycle"),
    ("SAN001", "sanitizer self-check failure"),
    ("PAR001", "file does not parse"),
)


def _default_root() -> str:
    return str(Path(__file__).resolve().parent.parent)


def _emit(findings: "list[Finding]", fmt: str, pillars: "list[str]") -> None:
    if fmt == "json":
        for f in findings:
            print(
                json.dumps(
                    {
                        "rule": f.rule,
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "message": f.message,
                    }
                )
            )
    else:
        for f in findings:
            print(f.format())
        status = "FAILED" if findings else "OK"
        print(f"repro.analysis [{', '.join(pillars)}]: {len(findings)} finding(s) — {status}")


def _cmd_graph(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.analysis graph")
    parser.add_argument("root", nargs="?", default=_default_root())
    args = parser.parse_args(argv)
    from .concurrency import build_lock_graph

    graph = build_lock_graph(args.root)
    print(f"lock-owning classes ({len(graph.nodes)}):")
    for node in sorted(graph.nodes):
        print(f"  {node}")
    print(f"acquisition edges ({len(graph.edges)}):")
    for e in graph.edges:
        print(f"  {e.src} -> {e.dst}  [{e.via}]  ({e.path}:{e.line})")
    cycles = graph.cycles()
    for cycle in cycles:
        print(f"CYCLE: {' -> '.join(cycle + [cycle[0]])}")
    print(f"{len(cycles)} cycle(s), {len(graph.blocking)} blocking call(s) under lock")
    return 1 if cycles or graph.blocking else 0


def _cmd_arch(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.analysis arch")
    parser.add_argument("root", nargs="?", default=_default_root())
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite ARCH_baseline.json from the current import graph",
    )
    args = parser.parse_args(argv)
    from .concurrency import (
        ALLOWED_DEPS,
        build_import_graph,
        check_architecture,
        load_baseline,
        package_edges,
        write_baseline,
    )

    edges, _ = build_import_graph(args.root)
    pkg = package_edges(edges)
    if args.update_baseline:
        path = write_baseline(pkg)
        print(f"baseline updated: {path} ({len(pkg)} package edge(s))")
        return 0
    baseline = load_baseline()
    print(f"package import edges ({len(pkg)}):")
    for (src, dst), witnesses in sorted(pkg.items()):
        if dst in ALLOWED_DEPS.get(src, frozenset()):
            status = "matrix"
        elif (src, dst) in baseline:
            status = "GRANDFATHERED"
        else:
            status = "VIOLATION"
        print(f"  {src:12s} -> {dst:12s} {len(witnesses):3d} import(s)  [{status}]")
    findings = check_architecture(args.root)
    for f in findings:
        print(f.format())
    print(f"{len(findings)} layering finding(s)")
    return 1 if findings else 0


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    subcommands = {"graph": _cmd_graph, "arch": _cmd_arch}
    if argv and argv[0] in subcommands:
        return subcommands[argv[0]](argv[1:])

    parser = argparse.ArgumentParser(prog="python -m repro.analysis", description=__doc__)
    parser.add_argument(
        "paths", nargs="*", help="files or directories to analyze (default: the repro package)"
    )
    parser.add_argument("--no-lint", action="store_true", help="skip the AST lint pillar")
    parser.add_argument(
        "--no-locks",
        action="store_true",
        help="skip the lock-discipline and lock-graph pillar",
    )
    parser.add_argument(
        "--no-arch", action="store_true", help="skip the architecture layering pillar"
    )
    parser.add_argument(
        "--no-sanitize", action="store_true", help="skip the runtime sanitizer self-check"
    )
    parser.add_argument(
        "--select", help="comma-separated rule ids to report (default: all)", default=None
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="json emits one finding object per line (JSONL)",
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalogue")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, cls in sorted(rule_index().items()):
            print(f"{rule_id}  {cls.summary}")
        for rule_id, summary in _PILLAR_RULES:
            print(f"{rule_id}  {summary}")
        return 0

    roots = args.paths or [_default_root()]
    for root in roots:
        if not Path(root).exists():
            parser.error(f"path does not exist: {root}")

    if args.select:
        selected = {r.strip() for r in args.select.split(",")}
        unknown = selected - known_rule_ids()
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    findings: list[Finding] = []
    for i, root in enumerate(roots):
        findings.extend(
            run_analysis(
                root=root,
                lint=not args.no_lint,
                locks=not args.no_locks,
                arch=not args.no_arch,
                # the runtime self-check is tree-independent: run it once
                sanitizer=not args.no_sanitize and i == 0,
            )
        )

    if args.select:
        findings = [f for f in findings if f.rule in selected]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    pillars = [
        name
        for flag, name in (
            (not args.no_lint, "lint"),
            (not args.no_locks, "lock-discipline"),
            (not args.no_arch, "layering"),
            (not args.no_sanitize, "sanitizer"),
        )
        if flag
    ]
    _emit(findings, args.format, pillars)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
