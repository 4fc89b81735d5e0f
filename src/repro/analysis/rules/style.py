"""MUT001 / EXC001 — defensive-coding rules.

* **MUT001**: mutable default arguments (``def f(x=[])``) alias one object
  across every call — with strategies and trainers instantiated per worker,
  a shared default silently couples replicas.
* **EXC001**: bare ``except:`` swallows ``KeyboardInterrupt``/``SystemExit``
  and hides worker crashes that a trainer must surface.

Defect in this tree: one simulator process builds every worker's node, so
a default list or dict on a strategy or node constructor is one object
shared by all of them, and a worker's state leaks into its neighbours'
without any parity test seeing a difference in a one-worker run.
``comm.protocol.run_worker_loop`` catches ``BaseException`` only to put
the error in its close frame, and re-raises; a bare ``except:`` that does
not re-raise turns a Ctrl-C into a worker that closes as if it finished.
Neither rule has a recorded find; both are generic hygiene that no
installed linter provides.  Fixture: ``bad_lint.py``'s ``leak`` and
``helper``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..linter import LintConfig, ModuleInfo, Rule

__all__ = ["BareExceptRule", "MutableDefaultRule"]

#: constructor names whose call as a default produces a shared mutable
_MUTABLE_CALLS = {"list", "dict", "set", "OrderedDict", "defaultdict", "deque", "Counter"}


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
        return name in _MUTABLE_CALLS
    return False


class MutableDefaultRule(Rule):
    id = "MUT001"
    summary = "no mutable default arguments; default to None and build inside"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            # positional (incl. pos-only) defaults align with the tail of the params
            pos_params = args.posonlyargs + args.args
            for param, default in zip(pos_params[len(pos_params) - len(args.defaults) :], args.defaults):
                if _is_mutable_literal(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default for parameter {param.arg!r} in "
                        f"{node.name}(); use None and construct inside",
                    )
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None and _is_mutable_literal(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default for parameter {param.arg!r} in "
                        f"{node.name}(); use None and construct inside",
                    )


class BareExceptRule(Rule):
    id = "EXC001"
    summary = "no bare except:; name the exception type"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except: catches KeyboardInterrupt/SystemExit; "
                    "catch a specific exception (at least Exception)",
                )
