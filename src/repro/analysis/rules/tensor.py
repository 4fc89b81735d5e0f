"""TEN001 — ``Tensor.data`` is only mutated by its owners.

The owners are ``autograd/`` and ``optim/``, the per-layer helpers in
``core/layerops.py`` (``assign_parameters``, ``add_payload``,
``copy_payload``) and ``nn/module.py`` (``Module.load_state_dict``'s
restore and ``Module.astype``).  Everything else calls a
``core.layerops`` helper.

Defect in this tree: a write to ``.data`` outside those files bypasses the
tape and the dtype the helpers keep (``np.copyto`` casts into the float32
buffer), so a float64 payload can re-widen a parameter unseen.  When the
rule was written, the ad-hoc payload writes it found moved into
``core.layerops``.  Fixture: ``bad_lint.py``'s ``poke``.

Detected shapes::

    x.data = ...          x.data += ...        x.data[i] = ...
    np.copyto(x.data, v)  layer.add_into(x.data)
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..linter import LintConfig, ModuleInfo, Rule

__all__ = ["TensorDataMutationRule"]

#: callables whose first argument is mutated in place
_MUTATING_CALLS = {"copyto", "add_into"}


def _is_data_attr(node: ast.expr) -> bool:
    """True for ``<expr>.data`` or ``<expr>.data[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "data"


class TensorDataMutationRule(Rule):
    id = "TEN001"
    summary = "Tensor.data mutation outside its owners (use core.layerops)"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        if module.may_mutate_tensor_data(config):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                fn = node.func
                if (
                    isinstance(fn, ast.Attribute)
                    and fn.attr in _MUTATING_CALLS
                    and node.args
                    and _is_data_attr(node.args[0])
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{fn.attr}(...) writes into a .data buffer outside "
                        "its owners; use core.layerops helpers",
                    )
                continue
            else:
                continue
            for tgt in targets:
                if _is_data_attr(tgt):
                    yield self.finding(
                        module,
                        tgt,
                        "in-place mutation of Tensor.data outside its owners; "
                        "use core.layerops helpers",
                    )
