"""CTR001: report-producing functions must declare their model contracts.

Any function that returns a freshly constructed ``LayerMeasurement``,
``HierarchyStats`` or ``LPMRReport`` is a *measurement producer*: its
output feeds the LPM algorithm's decisions.  Producers must carry the
:func:`repro.lint.contracts.satisfies` decorator naming the invariants the
output upholds, so (a) the declaration is visible at the definition site
and (b) the test suite's runtime contract mode can verify every produced
object.  Deserializers (``from_dict``-style classmethods reconstructing a
checkpointed object verbatim) are exempt — they reproduce, not produce.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import ModuleContext, Rule, Severity, Violation, register, walk

__all__ = ["UndeclaredReportProducer"]

_REPORT_TYPES = frozenset({"LayerMeasurement", "HierarchyStats", "LPMRReport"})
_EXEMPT_NAMES = frozenset({"from_dict"})


def _has_satisfies_decorator(func: ast.FunctionDef) -> bool:
    for deco in func.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "satisfies":
            return True
    return False


@register
class UndeclaredReportProducer(Rule):
    """CTR001: constructor-returning producer without a contract declaration."""

    name = "CTR001"
    severity = Severity.ERROR
    description = (
        "function returns a LayerMeasurement/HierarchyStats/LPMRReport but "
        "declares no contracts; add @satisfies(...) from repro.lint.contracts"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        reported: set[ast.AST] = set()
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            call = node.value
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            if call.func.id not in _REPORT_TYPES:
                continue
            func = ctx.enclosing_function(node)
            if func is None or not isinstance(func, ast.FunctionDef):
                continue
            if func.name in _EXEMPT_NAMES or _has_satisfies_decorator(func):
                continue
            if func in reported:
                continue
            reported.add(func)
            yield self.violation(
                ctx, func,
                f"{func.name}() returns a {call.func.id} but declares no "
                "model contracts; decorate it with @satisfies(...) naming "
                "the invariants its output upholds",
            )
