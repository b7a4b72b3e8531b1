"""Performance rules: keep observability out of the per-instruction path.

The engine's issue loops run once per *instruction*; the observability
layer budgets one enabled-check per *run* (see ``docs/OBSERVABILITY.md``).
A span or event created inside a simulation loop therefore pays dict
lookups, object construction and (when tracing is on) an export per
instruction — the exact regression the fast-path work removed.  PERF001
flags ``repro.obs`` span/event calls lexically inside a ``for``/``while``
loop in the simulation packages unless the call is guarded by
``tracing_enabled()`` (hoisting the guard around the whole loop also
counts).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import ModuleContext, Rule, Severity, Violation, register, walk

__all__ = ["SpanInHotLoop"]

#: ``repro.obs`` entry points that allocate/export per call.
_SPAN_LIKE = frozenset({"span", "event"})

#: Calls in an ``if`` test that make a span/event acceptable in a loop.
_GUARDS = frozenset({"tracing_enabled", "metrics_enabled"})


def _is_obs_chain(chain: "list[str] | None") -> bool:
    return (
        chain is not None
        and len(chain) >= 2
        and chain[-1] in _SPAN_LIKE
        and "obs" in chain[:-1]
    )


def _test_calls_guard(ctx: ModuleContext, test: ast.AST) -> bool:
    for node in walk(test):
        if isinstance(node, ast.Call):
            chain = ctx.resolve_call_chain(node.func)
            if chain and chain[-1] in _GUARDS:
                return True
    return False


@register
class SpanInHotLoop(Rule):
    """PERF001: obs span/event inside a simulation loop without a guard."""

    name = "PERF001"
    severity = Severity.ERROR
    description = (
        "repro.obs span()/event() inside a loop in simulation code; guard "
        "with tracing_enabled() (per call or hoisted around the loop) so "
        "the per-instruction path pays one boolean check at most"
    )
    packages = ("sim", "core", "analysis")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not _is_obs_chain(ctx.resolve_call_chain(node.func)):
                continue
            in_loop = False
            guarded = False
            for anc in ctx.ancestors(node):
                if isinstance(anc, (ast.For, ast.AsyncFor, ast.While)):
                    in_loop = True
                elif isinstance(anc, ast.If) and _test_calls_guard(ctx, anc.test):
                    guarded = True
                elif isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break
            if in_loop and not guarded:
                yield self.violation(
                    ctx, node,
                    "span/event created once per loop iteration; guard with "
                    "tracing_enabled() or hoist the span outside the loop",
                )
