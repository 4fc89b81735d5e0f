"""``src/`` holds what the reproduction runs.

Every module-level public ``def``/``class`` under ``src/repro`` must be
loaded — as an ``ast.Name`` or as the attribute of an ``ast.Attribute`` —
somewhere in ``src/``, ``benchmarks/`` or ``examples/`` outside its own
body.  Imports and ``__all__`` strings do not count, and neither do the
tests: a component that only its own tests reach is not part of the
reproduction and goes.  ``EXEMPT`` names the few that stay unreached on
purpose, each an oracle the tests compare against or a declaration.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples")
MAX_EXEMPT = 10

#: (module path under src/repro, name) -> why it stays without a caller
EXEMPT = {
    ("autograd/gradcheck.py", "gradcheck"):
        "oracle: the finite-difference check of every hand-written backward",
    ("sim/analysis.py", "predict"):
        "oracle: the queueing law tests/sim/test_analysis.py holds the simulator to",
    ("compression/base.py", "sparsify"):
        "oracle: the paper's sparsify(), the reference encode_mask is checked against",
    ("compression/base.py", "unsparsify"):
        "oracle: the paper's unsparsify(), the complement of sparsify",
    ("compression/coding.py", "encode_sparse"):
        "oracle: the paper's encode(), the reference for encode_mask",
    ("obs/export.py", "check_stream"):
        "oracle: validates a record stream and its Chrome conversion together",
    ("analysis/concurrency/arch.py", "matrix_is_acyclic"):
        "declaration check: the allowed-dependency matrix itself has no cycle",
    ("comm/channel.py", "Channel"):
        "declaration: the protocol every worker-side transport implements",
    ("exec/result.py", "validate_result"):
        "oracle: the TrainResult schema every backend's result is checked against",
    ("analysis/concurrency/runtime.py", "LockRegistry"):
        "oracle: the dynamic lock-order recorder the lock tests drive the server through",
}


def _trees() -> "dict[Path, ast.Module]":
    trees = {}
    for top in SEARCHED:
        for path in sorted((REPO / top).rglob("*.py")):
            if any(part.startswith(".") for part in path.relative_to(REPO).parts):
                continue
            trees[path] = ast.parse(path.read_text(), filename=str(path))
    return trees


def _unreached() -> "list[tuple[str, str, int]]":
    trees = _trees()
    loads: "dict[str, list[tuple[Path, int]]]" = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                loads.setdefault(node.attr, []).append((path, node.lineno))
    unreached = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            body = range(first, node.end_lineno + 1)
            if not any(p != path or line not in body for p, line in loads.get(node.name, ())):
                unreached.append((path.relative_to(PACKAGE).as_posix(), node.name, node.lineno))
    return unreached


def test_every_public_definition_is_reached():
    missing = [(mod, name, line) for mod, name, line in _unreached() if (mod, name) not in EXEMPT]
    assert not missing, "reached by no code outside its own body (tests do not count):\n" + "\n".join(
        f"  src/repro/{mod}:{line} {name}" for mod, name, line in missing
    )


def test_exemptions_are_few_and_still_needed():
    assert len(EXEMPT) <= MAX_EXEMPT
    unreached = {(mod, name) for mod, name, _ in _unreached()}
    stale = sorted(set(EXEMPT) - unreached)
    assert not stale, f"exempt but now reached (or gone): {stale}"
