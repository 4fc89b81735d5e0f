"""RNG001 — no module-level ``np.random.*`` draws in library code.

Asynchronous runs are only reproducible when every source of randomness is
an explicitly seeded, explicitly *passed* ``np.random.Generator``.  Calls
through the legacy module-level singleton (``np.random.rand``,
``np.random.seed``, …) share hidden global state across workers and make
HOGWILD interleavings unreplayable.  Constructing generators
(``np.random.default_rng``) is allowed.

Defect in this tree: per-seed determinism is what makes a one-worker
process run bitwise the simulator's and the ``--fast`` digests stable; a
draw from the global singleton depends on what else drew before it in the
process.  No find is recorded.  Fixture: ``bad_lint.py``'s ``leak``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..linter import LintConfig, ModuleInfo, Rule, numpy_aliases

__all__ = ["ModuleLevelRNGRule"]

#: attribute accesses on np.random that do not draw from the global RNG
_ALLOWED = {
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "default_rng",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
    "RandomState",  # constructing a private legacy stream, not the singleton
}


class ModuleLevelRNGRule(Rule):
    id = "RNG001"
    summary = "no np.random.* global-RNG use; pass a np.random.Generator"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        aliases = numpy_aliases(module.tree)
        if not aliases:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            # match <np-alias>.random.<name>
            inner = node.value
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr == "random"
                and isinstance(inner.value, ast.Name)
                and inner.value.id in aliases
                and node.attr not in _ALLOWED
            ):
                yield self.finding(
                    module,
                    node,
                    f"np.random.{node.attr} uses the global RNG singleton; "
                    "accept and use a seeded np.random.Generator instead",
                )
