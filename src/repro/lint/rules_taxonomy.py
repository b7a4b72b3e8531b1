"""Error-taxonomy rules: keep the ReproError hierarchy intact.

The supervised pool, the online controller, and the CLI all branch on the
:mod:`repro.runtime.errors` taxonomy.  A broad ``except Exception`` between
a raise site and those supervisors flattens a :class:`ReproError` into an
anonymous failure (losing the retryable/non-retryable distinction), and a
bare ``raise ValueError`` where :class:`ConfigError` exists robs callers of
the one base class they are promised.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import ModuleContext, Rule, Severity, Violation, register, walk

__all__ = ["BroadExceptionHandler", "TaxonomyBypassRaise"]

_BROAD = frozenset({"Exception", "BaseException"})
_TAXONOMY_NAMES = frozenset({
    "ReproError", "ConfigError", "MeasurementError",
    "EvaluationTimeout", "WorkerCrashed", "ContractViolation",
})


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    """The exception class names a handler catches ('' for a bare except)."""
    if handler.type is None:
        return {""}
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises (a bare ``raise`` anywhere in its body)."""
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in walk(handler)
    )


@register
class BroadExceptionHandler(Rule):
    """ERR001: broad except that can swallow the ReproError taxonomy."""

    name = "ERR001"
    severity = Severity.ERROR
    description = (
        "except Exception/BaseException/bare can swallow ReproError; catch "
        "the taxonomy first or re-raise"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            taxonomy_handled = False
            for handler in node.handlers:
                names = _handler_names(handler)
                if names & _TAXONOMY_NAMES:
                    taxonomy_handled = True
                if not (names & _BROAD or "" in names):
                    continue
                if taxonomy_handled and "" not in names and "BaseException" not in names:
                    # An earlier clause already routed the taxonomy; the
                    # broad clause only sees what is left.
                    continue
                if _reraises(handler):
                    continue
                caught = ", ".join(sorted(n or "<bare>" for n in names))
                yield self.violation(
                    ctx, handler,
                    f"broad handler ({caught}) can swallow ReproError / "
                    "KeyboardInterrupt; narrow it, catch ReproError first, "
                    "or re-raise",
                )


@register
class TaxonomyBypassRaise(Rule):
    """ERR002: raising a builtin where a taxonomy class exists (runtime/)."""

    name = "ERR002"
    severity = Severity.ERROR
    description = (
        "raise ValueError/RuntimeError/TimeoutError inside repro.runtime; "
        "use the ReproError taxonomy (ConfigError, MeasurementError, ...)"
    )
    packages = ("runtime",)

    _BYPASSED = {
        "ValueError": "ConfigError",
        "RuntimeError": "MeasurementError or WorkerCrashed",
        "TimeoutError": "EvaluationTimeout",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in self._BYPASSED:
                yield self.violation(
                    ctx, node,
                    f"raise {name} bypasses the error taxonomy; raise "
                    f"{self._BYPASSED[name]} (repro.runtime.errors) instead",
                )
