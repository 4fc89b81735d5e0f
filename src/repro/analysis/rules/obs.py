"""OBS001 — telemetry names come from ``repro.obs.names``, not inline strings.

Span and metric series names are the join keys of the whole observability
pipeline: the Chrome exporter groups lanes by them, ``repro.obs report`` /
``compare`` align runs on them, and :class:`~repro.obs.runs.HealthSpec`
gates on specific series.  A call site that spells a name inline
(``tracer.span("worker.step", ...)``) can drift from the registered
vocabulary without anything failing at the emit site — the series just
silently stops matching downstream tooling.  So everywhere, ``repro/obs``
included, the first argument of every telemetry emission call
(``span`` / ``add_span`` / ``span_record`` / ``counter`` / ``gauge`` /
``histogram``) must be a registered constant from :mod:`repro.obs.names`;
an inline string literal is a finding, and a literal that is not even
``dot.separated`` lowercase is called out as such.

Defect in this tree: the end-to-end benchmark reads its per-layer
metrics from spans by their registered names, so a renamed inline
literal drops a layer from the budget without an error.  Fixture:
``bad_obs.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..linter import LintConfig, ModuleInfo, Rule

__all__ = ["TelemetryNameRule"]

#: emission entry points whose first argument is a telemetry name
_TELEMETRY_CALLS = {
    "span",
    "add_span",
    "span_record",
    "counter",
    "gauge",
    "histogram",
}


class TelemetryNameRule(Rule):
    id = "OBS001"
    summary = "inline span/metric name literal"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        # Imported lazily so the rule module stays importable standalone
        # (the linter runs over arbitrary trees in tests).
        from ...obs.names import is_valid_name, registered_names

        registered = registered_names()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name not in _TELEMETRY_CALLS:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            literal = first.value
            if not is_valid_name(literal):
                yield self.finding(
                    module,
                    first,
                    f"telemetry name {literal!r} is not dot.separated lowercase; "
                    "register it in repro.obs.names and reference the constant",
                )
            elif literal not in registered:
                yield self.finding(
                    module,
                    first,
                    f"inline telemetry name {literal!r}; register it in "
                    "repro.obs.names and reference the constant so exporters "
                    "and health checks stay in sync",
                )
            else:
                yield self.finding(
                    module,
                    first,
                    f"telemetry name {literal!r} spelled inline; reference the "
                    "repro.obs.names constant instead of the string",
                )
