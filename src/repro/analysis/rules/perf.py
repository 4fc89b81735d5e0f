"""PERF rules — hot-path shapes that silently serialise or slow the server.

PERF001 — no per-layer Python loops over whole-model state on the hot
path.  The arena layer (``repro.core.arena.LayerArena``) exists so
whole-state operations — apply an update, decay momentum, compute
M − v_k — are one fused vectorised op over a flat buffer.  A ``for`` loop
over ``parameters_of(...)`` / ``gradients_of(...)`` in ``core/``, ``ps/``
or ``exec/`` re-introduces the per-layer interpreter overhead the arena
was built to remove (and stretches the server's lock hold).  The
per-layer helpers in ``core/layerops.py`` are exempt: they act on a
model's parameters, which are separate arrays by nature.  Defect in this
tree: a per-layer loop in ``ps/`` runs under the server's lock on every
step.  Fixture: ``bad_perf.py``.

PERF003 — no payload-sized copy on the wire path.  A frame crosses each
hop of an exchange with the copies its arithmetic needs and no more:

* a send gathers segments — the codec hands the channel a frame as
  packed headers plus ``memoryview`` s of the payload's own arrays, and
  the channel writes prefix and segments with ``sendmsg``;
* a cast is the only payload copy on a send — an array not already in
  its wire dtype (float64 values, int64 indices) is cast-copied once;
* a receive fills one fresh buffer — ``recv_into`` straight into it.

In the wire modules (``ps/codec.py``, ``comm/frames.py``,
``comm/socket.py``, ``comm/pipe.py``) the spellings that add copies are
flagged: ``arr.tobytes()``, ``b"".join(parts)``, ``header + raw`` where an
operand is an encoded frame (a ``raw`` name, or the result of
``encode_frame`` / ``join_segments``), and ``encode_frame(...)`` (or
``join_segments(...)``) inside a ``send*`` function — a channel's send
path gathers ``frame_segments`` instead of copying the frame into one
buffer first.  Small fixed headers may still be concatenated — the rule
looks at what is being added, not at ``+``.  Defect in this tree: the
payload copies the dense exchange used to make (``docs/performance.md``,
"Copies only where a cast is needed").  Fixture: ``bad_wire_copy.py``,
the shapes the wire path had before.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..linter import LintConfig, ModuleInfo, Rule

__all__ = ["PerLayerLoopRule", "WireCopyRule"]

#: whole-model collectors whose results must not be iterated layer-by-layer
_COLLECTORS = {"parameters_of", "gradients_of"}

#: Mapping iteration views — looping `collector(...).items()` is still a loop
_VIEWS = {"items", "keys", "values"}


def _call_name(node: ast.AST) -> "str | None":
    """``f`` for a call ``f(...)`` or ``x.f(...)``, else ``None``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _collector_call(node: ast.AST) -> "str | None":
    """The collector name if ``node`` is ``parameters_of(...)`` /
    ``gradients_of(...)`` or an ``.items()``-style view of one."""
    name = _call_name(node)
    if name in _VIEWS and isinstance(node.func, ast.Attribute) and not node.args:
        return _collector_call(node.func.value)
    return name if name in _COLLECTORS else None


class PerLayerLoopRule(Rule):
    id = "PERF001"
    summary = "per-layer Python loop over parameters_of()/gradients_of() on the hot path"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        if not module.in_perf_loop_scope(config):
            return
        for node in ast.walk(module.tree):
            iters: "list[ast.AST]" = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                name = _collector_call(it)
                if name is not None:
                    yield self.finding(
                        module,
                        it,
                        f"per-layer loop over '{name}(...)' on the hot path; "
                        "use a LayerArena and one fused op over .flat "
                        "(repro.core.arena), or move the loop to the "
                        "layerops reference path",
                    )


#: calls whose result is a whole encoded frame in one buffer
_ENCODERS = {"encode_frame", "join_segments"}


def _encoded_names(tree: ast.Module) -> "set[str]":
    """Names that hold an encoded frame: ``raw`` by this repo's convention
    (``send_raw(raw)``, ``raw = recv_raw()``) plus anything assigned from
    an encoder call."""
    names = {"raw"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _call_name(node.value) in _ENCODERS:
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _add_operands(node: ast.BinOp) -> "Iterator[ast.AST]":
    """The leaves of a (possibly nested) ``a + b + c`` chain."""
    for side in (node.left, node.right):
        if isinstance(side, ast.BinOp) and isinstance(side.op, ast.Add):
            yield from _add_operands(side)
        else:
            yield side


def _encoded_operand(operand: ast.AST, encoded: "set[str]") -> "str | None":
    """How ``operand`` reads if it is an encoded frame, else ``None``."""
    name = _call_name(operand)
    if name in _ENCODERS:
        return f"{name}(...)"
    if isinstance(operand, ast.Name) and operand.id in encoded:
        return operand.id
    return None


class WireCopyRule(Rule):
    id = "PERF003"
    summary = (
        "payload-sized copy (.tobytes / b\"\".join / header + frame / "
        "a whole-frame encode on a send path) on the wire path"
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        if not module.in_wire_copy_scope(config):
            return
        for func in ast.walk(module.tree):
            if not (
                isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                and func.name.lstrip("_").startswith("send")
            ):
                continue
            for call in ast.walk(func):
                name = _call_name(call)
                if name in _ENCODERS:
                    yield self.finding(
                        module,
                        call,
                        f"'{name}(...)' on a send path copies the whole frame "
                        "into one buffer before it is written; gather "
                        "frame_segments(...) behind the prefix in one sendmsg",
                    )
        encoded = _encoded_names(module.tree)
        inner: "set[int]" = set()  # '+' nodes below one already looked at
        for node in ast.walk(module.tree):  # breadth-first: outer '+' comes first
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if node.func.attr == "tobytes":
                    yield self.finding(
                        module,
                        node,
                        "'.tobytes()' copies the array into a bytes object that "
                        "is then copied again into the message; hand the array "
                        "over as a segment, or cast-copy it once into its run "
                        "(as message_segments does)",
                    )
                elif (
                    node.func.attr == "join"
                    and isinstance(owner, ast.Constant)
                    and isinstance(owner.value, bytes)
                ):
                    yield self.finding(
                        module,
                        node,
                        "'b\"\".join(...)' re-copies every part; size the "
                        "message first and write the parts into one buffer "
                        "(pack_into / recv_into)",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and id(node) not in inner:
                operands = list(_add_operands(node))
                inner.update(id(n) for n in ast.walk(node))
                what = next(filter(None, (_encoded_operand(o, encoded) for o in operands)), None)
                if what is not None:
                    yield self.finding(
                        module,
                        node,
                        f"'+' copies the encoded frame '{what}' behind its "
                        "header; gather header and frame segments in one "
                        "sendmsg",
                    )
