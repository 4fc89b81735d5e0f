"""COM001 — wire framing stays inside ``repro.comm``.

The channel layer is the only place allowed to turn messages into bytes:
``repro.comm`` owns frame encode/decode and the pipe and TCP transports,
and ``ps/codec.py`` owns the payload codec it delegates to.  Anywhere
else, ``import struct``, ``import socket``, ``multiprocessing.connection``
imports, or direct ``message_segments`` / ``decode_message`` calls mean a
trainer is growing its own ad-hoc wire protocol — exactly the duplication
the channel layer exists to prevent, and a path where byte accounting
silently diverges between backends.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..linter import LintConfig, ModuleInfo, Rule

__all__ = ["WireFramingRule"]

#: codec entry points that only the channel layer may call
_CODEC_CALLS = {"message_segments", "decode_message"}


class WireFramingRule(Rule):
    id = "COM001"
    summary = "wire framing (struct / socket / multiprocessing.connection / codec calls) outside repro.comm"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        if module.may_do_wire_framing(config):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "struct" or alias.name.startswith("struct."):
                        yield self.finding(
                            module,
                            node,
                            "import of 'struct' outside repro.comm; byte framing "
                            "belongs in the channel layer (repro/comm)",
                        )
                    elif alias.name == "socket" or alias.name.startswith("socket."):
                        yield self.finding(
                            module,
                            node,
                            "import of 'socket' outside repro.comm; raw TCP belongs "
                            "in the channel layer (use a SocketChannel/SocketListener)",
                        )
                    elif alias.name == "multiprocessing.connection":
                        yield self.finding(
                            module,
                            node,
                            "import of 'multiprocessing.connection' outside repro.comm; "
                            "use a PipeChannel from the channel layer instead",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mod = node.module or ""
                if mod == "struct" or mod.startswith("struct."):
                    yield self.finding(
                        module,
                        node,
                        "import from 'struct' outside repro.comm; byte framing "
                        "belongs in the channel layer (repro/comm)",
                    )
                elif mod == "socket" or mod.startswith("socket."):
                    yield self.finding(
                        module,
                        node,
                        "import from 'socket' outside repro.comm; raw TCP belongs "
                        "in the channel layer (use a SocketChannel/SocketListener)",
                    )
                elif mod == "multiprocessing.connection" or (
                    mod == "multiprocessing"
                    and any(a.name == "connection" for a in node.names)
                ):
                    yield self.finding(
                        module,
                        node,
                        "import of 'multiprocessing.connection' outside repro.comm; "
                        "use a PipeChannel from the channel layer instead",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name in _CODEC_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"direct call to '{name}' outside repro.comm; send a Frame "
                        "through a Channel so bytes are accounted once",
                    )
