"""DTY001 — explicit ``dtype=`` on allocations in hot paths.

NumPy's default dtype is float64; one implicit allocation in the compress →
ship → decompress cycle silently promotes every downstream buffer (dtype
creep) and doubles wire/RSS accounting.  In the hot subpackages
(``autograd/``, ``compression/``, ``ps/``, ``optim/``, and — since models
and datasets are float32 — ``nn/`` and ``data/``, where one
``np.zeros(num_features)`` re-widens every graph the layer joins) every
``np.zeros/ones/empty/full/array`` call must pin its dtype.  ``*_like``
constructors inherit their dtype and are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..linter import LintConfig, ModuleInfo, Rule, numpy_aliases

__all__ = ["MissingDtypeRule"]

_ALLOCATORS = {"zeros", "ones", "empty", "full", "array"}


class MissingDtypeRule(Rule):
    id = "DTY001"
    summary = "np.zeros/ones/empty/full/array in hot paths need explicit dtype="

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        if not module.is_hot_path(config):
            return
        aliases = numpy_aliases(module.tree)
        if not aliases:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if not (
                isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Name)
                and fn.value.id in aliases
                and fn.attr in _ALLOCATORS
            ):
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            # np.array(x, <dtype>) — dtype is the second positional argument
            if fn.attr == "array" and len(node.args) >= 2:
                continue
            yield self.finding(
                module,
                node,
                f"np.{fn.attr}(...) without dtype= in hot path; "
                "implicit float64 allocation causes dtype creep",
            )
