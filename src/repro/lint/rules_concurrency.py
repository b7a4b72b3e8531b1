"""Concurrency-safety rules for the fork-based evaluation pool.

The pool forks workers, so module state is *copied* at fork time: a
worker-side write to a module-level mutable, or to supervisor-owned
attributes, silently diverges from the parent and is lost when the worker
exits.  These rules flag the two shapes of that bug:

* CON001 — module-level mutable containers in pool-adjacent packages
  (``runtime``, ``sim``, ``sched``).  Constants are fine (dunders and
  ALL_CAPS names are exempt by convention: registries populated at import
  time and read-only afterwards), anything else is shared mutable state;
* CON002 — code reachable on the worker side of the fork (functions passed
  as a ``Process(target=...)`` or named ``_worker_*``) rebinding module or
  closure state via ``global`` / ``nonlocal``, or writing attributes on
  anything other than its own locals.

CON003 guards the asyncio side of the house: inside :mod:`repro.service`
every await on a raw socket/stream/queue transport primitive must carry a
deadline — wrapped in ``asyncio.wait_for`` (or an ``asyncio.timeout``
block) or passing a ``timeout=``/``deadline=`` argument — because one
half-dead peer otherwise parks the coroutine, and with it a connection
handler or the dispatch loop, forever.  Higher-level blocking shapes
(``join``, ``wait``, sync disk IO on the loop) belong to the
whole-program ASYNC tier (``repro lint --program``), which sees the call
graph this per-file rule cannot.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import ModuleContext, Rule, Severity, Violation, register, walk

__all__ = [
    "ModuleLevelMutableGlobal",
    "WorkerSideSharedMutation",
    "UnboundedServiceAwait",
]

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque", "Counter"})


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


def _is_constant_style(name: str) -> bool:
    return name.startswith("__") or name == name.upper()


@register
class ModuleLevelMutableGlobal(Rule):
    """CON001: fork-unsafe module-level mutable container."""

    name = "CON001"
    severity = Severity.ERROR
    description = (
        "module-level mutable container is fork-unsafe shared state; make "
        "it a constant (ALL_CAPS, treated as frozen) or instance state"
    )
    packages = ("runtime", "sim", "sched")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for stmt in ctx.tree.body:
            targets: list[ast.expr] = []
            value: "ast.expr | None" = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_literal(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not _is_constant_style(target.id):
                    yield self.violation(
                        ctx, stmt,
                        f"module-level mutable {target.id!r} is shared "
                        "(fork-copied) state; use ALL_CAPS for a frozen "
                        "registry or move it into an instance",
                    )


def _worker_entry_functions(ctx: ModuleContext) -> "list[ast.FunctionDef]":
    """Functions that run on the worker side of a Process fork."""
    targets: set[str] = set()
    for node in walk(ctx.tree):
        if isinstance(node, ast.Call):
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else (
                node.func.id if isinstance(node.func, ast.Name) else None
            )
            if callee == "Process":
                for kw in node.keywords:
                    if kw.arg == "target" and isinstance(kw.value, ast.Name):
                        targets.add(kw.value.id)
    entries = []
    for node in walk(ctx.tree):
        if isinstance(node, ast.FunctionDef) and (
            node.name in targets or node.name.startswith("_worker")
        ):
            entries.append(node)
    return entries


@register
class WorkerSideSharedMutation(Rule):
    """CON002: worker-side code mutating supervisor/module state."""

    name = "CON002"
    severity = Severity.ERROR
    description = (
        "worker-side function mutates state outside its own frame; the "
        "write is lost at fork boundaries — return results over the pipe "
        "instead"
    )
    packages = ("runtime", "sim", "sched")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for func in _worker_entry_functions(ctx):
            local_names = {arg.arg for arg in (
                *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs,
            )}
            if func.args.vararg:
                local_names.add(func.args.vararg.arg)
            if func.args.kwarg:
                local_names.add(func.args.kwarg.arg)
            for node in walk(func):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                    yield self.violation(
                        ctx, node,
                        f"{kind} rebinding in worker-side function "
                        f"{func.name!r} diverges from the supervisor after "
                        "fork",
                    )
                elif isinstance(node, ast.Assign):
                    local_names.update(
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    )
                elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                    node.target, ast.Name
                ):
                    local_names.add(node.target.id)
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    local_names.update(
                        item.optional_vars.id
                        for item in node.items
                        if isinstance(item.optional_vars, ast.Name)
                    )
                elif isinstance(node, (ast.Attribute,)) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    root = node
                    while isinstance(root, ast.Attribute):
                        root = root.value
                    if isinstance(root, ast.Name) and root.id not in local_names:
                        yield self.violation(
                            ctx, node,
                            f"worker-side function {func.name!r} writes "
                            f"attribute on non-local {root.id!r}; the "
                            "mutation is invisible to the supervisor",
                        )


#: Await targets that block on a peer, a pipe, or a queue — the *raw
#: transport primitives* that hang forever when the other side dies.
#: ``asyncio.wait_for`` itself is deliberately absent: it is the fix, not
#: the hazard.  Generic method names (``join``, ``wait``) are also absent
#: — their blocking forms are the whole-program ASYNC001 tier's scope
#: (rescoped in PR 7 so no line is ever reported by both tiers).
_BLOCKING_AWAITS = frozenset({
    "accept", "connect", "drain", "get", "open_connection",
    "put", "read", "readexactly", "readline", "readuntil", "recv",
    "recv_into", "send", "sendall", "wait_closed",
})


def _has_deadline_kwarg(call: ast.Call) -> bool:
    return any(
        kw.arg is not None and ("timeout" in kw.arg or "deadline" in kw.arg)
        for kw in call.keywords
    )


@register
class UnboundedServiceAwait(Rule):
    """CON003: unbounded await on a socket/stream/queue primitive."""

    name = "CON003"
    severity = Severity.ERROR
    description = (
        "await on a raw socket/stream/queue transport primitive in "
        "repro.service without a deadline; wrap it in asyncio.wait_for "
        "(or an asyncio.timeout block) or pass a timeout=/deadline= "
        "argument so one half-dead peer cannot park the coroutine forever"
    )
    packages = ("service",)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Await):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            name = (
                call.func.attr if isinstance(call.func, ast.Attribute)
                else call.func.id if isinstance(call.func, ast.Name)
                else None
            )
            if name not in _BLOCKING_AWAITS:
                continue
            if _has_deadline_kwarg(call):
                continue
            if self._inside_timeout_block(ctx, node):
                continue
            yield self.violation(
                ctx, node,
                f"await {name}(...) has no deadline; wrap it in "
                "asyncio.wait_for(...) or pass a timeout=/deadline= "
                "argument",
            )

    @staticmethod
    def _inside_timeout_block(ctx: ModuleContext, node: ast.AST) -> bool:
        """Whether an ``async with asyncio.timeout(...)`` bounds *node*."""
        for anc in ctx.ancestors(node):
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    expr = item.context_expr
                    if not isinstance(expr, ast.Call):
                        continue
                    chain = ctx.resolve_call_chain(expr.func)
                    if chain and chain[0] == "asyncio" and chain[-1] in (
                        "timeout", "timeout_at",
                    ):
                        return True
            elif isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break  # a timeout block outside the coroutine bounds nothing
        return False
