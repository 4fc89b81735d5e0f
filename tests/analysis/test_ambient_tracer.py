"""Spans reach a trace one way: the ambient tracer.

Every emitter under ``src/repro`` calls ``repro.obs.current_tracer()`` at
its call site, and a run is traced by entering ``repro.obs.use_tracer``.
A second, explicit route — a ``tracer`` parameter threaded through a
constructor or a function, or a tracer kept on ``self`` — silently drops
every layer it does not reach.  This test walks ``src/repro`` outside
``repro/obs`` (which defines the tracer) and fails on either.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


def _offences() -> "list[str]":
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel.startswith("obs/"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if any(p is not None and p.arg == "tracer" for p in params):
                    name = getattr(node, "name", "<lambda>")
                    found.append(f"{rel}:{node.lineno}: {name}() takes a tracer parameter")
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if (
                            isinstance(sub, ast.Attribute)
                            and sub.attr == "tracer"
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"
                        ):
                            found.append(f"{rel}:{node.lineno}: assigns self.tracer")
    return found


def test_no_explicit_tracer_path_outside_obs():
    assert (PACKAGE / "comm" / "channel.py").is_file()  # the walk is not vacuous
    offences = _offences()
    assert not offences, (
        "emit to repro.obs.current_tracer() instead of passing a tracer:\n  "
        + "\n  ".join(offences)
    )
