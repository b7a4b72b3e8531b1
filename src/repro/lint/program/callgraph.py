"""Call graph rooted at the CLI, pool and engine entry points.

Edges are *resolved* static calls: direct names, import-expanded attribute
chains (re-exports chased through the symbol table), ``self.method()``
within a class, ``self.attr.method()`` where the attribute's class is
inferred from ``__init__`` (a constructor call or an annotated
parameter bound to the attribute), and class instantiation (an edge to
``__init__``).
Dynamic dispatch — a method on an object of unknown type, a callable
stored in a data structure — is out of scope and simply contributes no
edge; rules built on reachability are therefore *under*-approximate and
must treat unresolved calls as benign (documented per rule).

The root sets mirror how the program is actually entered:

* **cli** — ``main`` / ``_cmd_*`` in a ``cli`` module;
* **pool** — the fork/spawn job paths: worker loops (``_worker*`` or a
  ``Process(target=...)``), functions submitted as ``Job(fn=...)``, and
  functions shipped through ``EvaluationPool.worker_setup``;
* **engine** — public functions of a ``sim.engine`` module.

Edges carry a *kind* describing how control crosses them, mirroring the
concurrency hierarchy the service runs on:

* ``call``  — plain synchronous invocation (same frame stack);
* ``await`` — the call sits directly under an ``await`` (cooperative);
* ``spawn`` — the coroutine is handed to an asyncio driver
  (``create_task`` / ``ensure_future`` / ``gather`` / ``wait_for`` /
  ``shield`` / ``wait`` / ``run``) and runs as a loop task;
* ``executor`` — the function is shipped off the loop
  (``asyncio.to_thread`` / ``run_in_executor`` / executor ``submit``)
  and runs on a worker thread.

:func:`classify_contexts` propagates these kinds into a per-function
execution-context classification (loop / thread / worker), the lattice
ASYNC001 and RACE003 are built on.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field

from repro.lint.engine import walk
from repro.lint.program.symbols import FunctionInfo, ModuleInfo, ProgramModel

__all__ = [
    "CallSite",
    "CallGraph",
    "EntryPoints",
    "ExecutionContexts",
    "build_call_graph",
    "classify_contexts",
    "find_entry_points",
    "in_async_context",
]


@dataclass
class CallSite:
    """One call expression inside a function, with its resolution."""

    caller: str  # FunctionInfo.ref of the enclosing function
    node: ast.Call
    #: ``module:qualname`` of the resolved callee, or None when dynamic.
    callee: "str | None"
    #: The import-expanded dotted chain, even when unresolved ("numpy.sqrt").
    dotted: "str | None"
    #: How control crosses the edge: "call" | "await" | "spawn" | "executor".
    kind: str = "call"
    #: Whether the call is lexically inside an ``async def`` (the enclosing
    #: function itself, or a nested coroutine folded into it).
    in_async: bool = False


#: asyncio drivers whose coroutine arguments become loop tasks.
_SPAWN_WRAPPERS = frozenset({
    "create_task", "ensure_future", "gather", "wait_for", "shield",
    "wait", "run",
})


def in_async_context(info: ModuleInfo, node: ast.AST) -> bool:
    """Whether *node*'s nearest enclosing function is an ``async def``."""
    for ancestor in info.ctx.ancestors(node):
        if isinstance(ancestor, ast.AsyncFunctionDef):
            return True
        if isinstance(ancestor, ast.FunctionDef):
            return False
    return False


def _spawn_wrapped_calls(info: ModuleInfo, node: ast.Call) -> "list[ast.Call]":
    """Inner coroutine calls handed to an asyncio spawn/driver wrapper."""
    chain = info.ctx.resolve_call_chain(node.func)
    is_wrapper = bool(chain) and chain[0] == "asyncio" and chain[-1] in _SPAWN_WRAPPERS
    if not is_wrapper and isinstance(node.func, ast.Attribute):
        # ``loop.create_task(...)`` / ``tg.create_task(...)`` on an
        # unresolved receiver still spawns its coroutine argument.
        is_wrapper = node.func.attr in ("create_task", "ensure_future")
    if not is_wrapper:
        return []
    return [arg for arg in node.args if isinstance(arg, ast.Call)]


def _executor_target_exprs(info: ModuleInfo, node: ast.Call) -> "list[ast.expr]":
    """Function expressions *node* ships off the event loop, if any."""
    chain = info.ctx.resolve_call_chain(node.func)
    if chain and chain[0] == "asyncio" and chain[-1] == "to_thread" and node.args:
        return [node.args[0]]
    if isinstance(node.func, ast.Attribute):
        if node.func.attr == "run_in_executor" and len(node.args) >= 2:
            return [node.args[1]]
        if node.func.attr == "submit" and node.args:
            # Guarded by resolution: ``.submit`` only contributes an edge
            # when the argument resolves to a known function.
            return [node.args[0]]
    return []


def _annotation_class_ref(
    model: ProgramModel, info: ModuleInfo, ann: "ast.AST | None", _depth: int = 0
) -> "str | None":
    """``module:Class`` named by a type annotation, or None.

    Unwraps string annotations (re-parsed), ``X | None`` unions, and
    ``Optional[X]`` — the shapes ``__init__`` signatures in this codebase
    actually use.  TYPE_CHECKING-only imports resolve like any other:
    the symbol table records them regardless of the guard.
    """
    if ann is None or _depth > 4:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        for side in (ann.left, ann.right):
            found = _annotation_class_ref(model, info, side, _depth + 1)
            if found is not None:
                return found
        return None
    if isinstance(ann, ast.Subscript):
        head = ann.value
        name = (
            head.attr if isinstance(head, ast.Attribute)
            else head.id if isinstance(head, ast.Name) else None
        )
        if name == "Optional":
            return _annotation_class_ref(model, info, ann.slice, _depth + 1)
        return None
    resolution = model.resolve_in_module(info, ann)
    if resolution is not None and resolution.kind == "class":
        return f"{resolution.module}:{resolution.class_name}"
    return None


def _value_class_ref(
    model: ProgramModel,
    info: ModuleInfo,
    value: ast.AST,
    ann_by_param: "dict[str, ast.AST]",
    _depth: int = 0,
) -> "str | None":
    """The class a ``self.<attr> = <value>`` binding stores, if inferable."""
    if _depth > 3:
        return None
    if isinstance(value, ast.IfExp):
        return _value_class_ref(
            model, info, value.body, ann_by_param, _depth + 1
        ) or _value_class_ref(model, info, value.orelse, ann_by_param, _depth + 1)
    if isinstance(value, ast.Call):
        resolution = model.resolve_in_module(info, value.func)
        if resolution is not None and resolution.kind == "class":
            return f"{resolution.module}:{resolution.class_name}"
        return None
    if isinstance(value, ast.Name) and value.id in ann_by_param:
        return _annotation_class_ref(model, info, ann_by_param[value.id])
    return None


def _self_attr_types(
    model: ProgramModel, info: ModuleInfo, class_name: str
) -> "dict[str, str]":
    """attr -> ``module:Class`` for ``self.<attr>`` bindings in ``__init__``.

    Two inference sources, both sound under this codebase's conventions:
    a constructor call assigned to the attribute, and a parameter whose
    annotation names a program class.  This is what lets
    ``self.store_chaos.maybe_damage()`` (a three-segment chain) resolve —
    without it every injected collaborator is a call-graph dead end.
    """
    cache: "dict[tuple[str, str], dict[str, str]] | None" = getattr(
        model, "_self_attr_cache", None
    )
    if cache is None:
        cache = {}
        model._self_attr_cache = cache  # type: ignore[attr-defined]
    key = (info.name, class_name)
    if key in cache:
        return cache[key]
    out: "dict[str, str]" = {}
    init = info.functions.get(f"{class_name}.__init__")
    if init is not None:
        args = init.node.args
        ann_by_param: "dict[str, ast.AST]" = {
            a.arg: a.annotation
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.annotation is not None
        }
        for stmt in walk(init.node):
            targets: "list[ast.expr]" = []
            value: "ast.expr | None" = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls_ref = _value_class_ref(model, info, value, ann_by_param)
                    if cls_ref is not None:
                        out[target.attr] = cls_ref
    cache[key] = out
    return out


def _module_has_segments(name: str, pairs: "tuple[tuple[str, ...], ...]") -> bool:
    parts = name.split(".")
    for pair in pairs:
        n = len(pair)
        if any(tuple(parts[i : i + n]) == pair for i in range(len(parts) - n + 1)):
            return True
    return False


def _resolve_callee(
    model: ProgramModel, info: ModuleInfo, func: "FunctionInfo | None", node: ast.AST
) -> "tuple[str | None, str | None]":
    """``(callee_ref, dotted_chain)`` for a call/reference expression."""
    chain = info.ctx.resolve_call_chain(node)
    if not chain:
        return None, None
    dotted = ".".join(chain)
    # self.method() / cls.method() inside a class body.
    if func is not None and func.class_name and chain[0] in ("self", "cls"):
        if len(chain) == 2:
            target = info.functions.get(f"{func.class_name}.{chain[1]}")
            if target is not None:
                return target.ref, dotted
        elif len(chain) == 3:
            # ``self.<attr>.<method>()`` on an attribute whose class was
            # inferred from ``__init__`` (constructor call or annotation).
            cls_ref = _self_attr_types(model, info, func.class_name).get(chain[1])
            if cls_ref is not None:
                mod, _, cls = cls_ref.partition(":")
                target_info = model.modules.get(mod)
                target = (
                    target_info.functions.get(f"{cls}.{chain[2]}")
                    if target_info is not None
                    else None
                )
                if target is not None:
                    return target.ref, dotted
        return None, dotted
    resolution = model.resolve_in_module(info, node)
    if resolution is None:
        return None, dotted
    if resolution.kind == "function" and resolution.function is not None:
        return resolution.function.ref, dotted
    if resolution.kind == "class":
        if resolution.function is not None:  # the __init__ method
            return resolution.function.ref, dotted
        return None, dotted
    return None, dotted


@dataclass
class CallGraph:
    """Resolved static call edges over a :class:`ProgramModel`."""

    model: ProgramModel
    edges: "dict[str, tuple[str, ...]]" = field(default_factory=dict)
    sites: "dict[str, list[CallSite]]" = field(default_factory=dict)
    #: caller -> callee -> the set of edge kinds observed between them.
    edge_kinds: "dict[str, dict[str, set[str]]]" = field(default_factory=dict)

    def callees(self, ref: str) -> "tuple[str, ...]":
        """Resolved direct callees of the function *ref*."""
        return self.edges.get(ref, ())

    def callees_via(self, ref: str, kinds: "frozenset[str] | set[str]") -> "tuple[str, ...]":
        """Direct callees connected by at least one edge of the given kinds."""
        by_callee = self.edge_kinds.get(ref, {})
        return tuple(sorted(c for c, ks in by_callee.items() if ks & kinds))

    def reachable(self, roots: "set[str] | list[str]") -> "set[str]":
        """Functions transitively reachable from *roots* (roots included)."""
        seen: "set[str]" = set()
        stack = [r for r in sorted(roots) if r in self.edges or self.model.function(r)]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(c for c in self.callees(current) if c not in seen)
        return seen

    def path(self, roots: "set[str] | list[str]", target: str) -> "list[str] | None":
        """A shortest root->target call chain, or None if unreachable."""
        from collections import deque

        parents: "dict[str, str | None]" = {r: None for r in sorted(roots)}
        queue = deque(sorted(roots))
        while queue:
            current = queue.popleft()
            if current == target:
                chain = [current]
                while parents[chain[-1]] is not None:
                    chain.append(parents[chain[-1]])  # type: ignore[arg-type]
                return list(reversed(chain))
            for callee in self.callees(current):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return None


def build_call_graph(model: ProgramModel) -> CallGraph:
    """Extract every resolvable call edge from the program model."""
    graph = CallGraph(model)
    for func in model.functions():
        info = model.modules[func.module]
        sites: "list[CallSite]" = []
        targets: "set[str]" = set()
        kinds: "dict[str, set[str]]" = {}

        def note(site: CallSite) -> None:
            sites.append(site)
            if site.callee is not None:
                targets.add(site.callee)
                kinds.setdefault(site.callee, set()).add(site.kind)

        spawn_inner: "set[int]" = set()
        for node in walk(func.node):
            if isinstance(node, ast.Call):
                for inner in _spawn_wrapped_calls(info, node):
                    spawn_inner.add(id(inner))
        for node in walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            in_async = in_async_context(info, node)
            callee, dotted = _resolve_callee(model, info, func, node.func)
            if id(node) in spawn_inner:
                kind = "spawn"
            elif isinstance(info.ctx.parent(node), ast.Await):
                kind = "await"
            else:
                kind = "call"
            note(
                CallSite(
                    caller=func.ref, node=node, callee=callee, dotted=dotted,
                    kind=kind, in_async=in_async,
                )
            )
            for target_expr in _executor_target_exprs(info, node):
                ecallee, edotted = _resolve_callee(model, info, func, target_expr)
                if ecallee is not None:
                    note(
                        CallSite(
                            caller=func.ref, node=node, callee=ecallee,
                            dotted=edotted, kind="executor", in_async=in_async,
                        )
                    )
        graph.sites[func.ref] = sites
        graph.edges[func.ref] = tuple(sorted(targets))
        graph.edge_kinds[func.ref] = kinds
    return graph


@dataclass
class EntryPoints:
    """The root sets the analysis walks from, by entry kind."""

    cli: "set[str]" = field(default_factory=set)
    pool: "set[str]" = field(default_factory=set)
    engine: "set[str]" = field(default_factory=set)

    def all(self) -> "set[str]":
        """Every root across the three kinds."""
        return self.cli | self.pool | self.engine


#: Constructor names marking a function as a pool dispatcher: anything it
#: lets escape as a value may run on the worker side of a fork.
_POOL_MARKERS = frozenset({"Job", "Process"})


def _escaped_function_refs(
    model: ProgramModel, info: ModuleInfo, func: FunctionInfo
) -> "set[str]":
    """Function references that escape *func* as values (not direct calls).

    A reference passed as ``Job(fn=...)``, ``Process(target=...)``, or
    packed into a ``worker_setup`` payload tuple is *escaped*: it will be
    invoked later, typically on the worker side of the pool.  Direct call
    positions are excluded — those are ordinary edges of the call graph.
    """
    call_positions = {
        id(node.func) for node in walk(func.node) if isinstance(node, ast.Call)
    }
    # Exclude sub-expressions of call positions (``a.b`` inside ``a.b()``).
    refs: "set[str]" = set()
    for node in walk(func.node):
        if not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        if id(node) in call_positions:
            continue
        parent = info.ctx.parent(node)
        if isinstance(parent, ast.Attribute) or (
            isinstance(parent, ast.Call) and id(parent.func) == id(node)
        ):
            continue
        callee, _ = _resolve_callee(model, info, func, node)
        if callee is not None:
            refs.add(callee)
    return refs


def _is_pool_dispatcher(info: ModuleInfo, func: FunctionInfo) -> bool:
    """Whether *func* hands work to the evaluation pool.

    True when the body constructs a ``Job``/``Process`` or touches a
    ``worker_setup`` attribute — the three ways code crosses the fork
    boundary in this codebase.
    """
    for node in walk(func.node):
        if isinstance(node, ast.Call):
            target = node.func
            name = (
                target.attr
                if isinstance(target, ast.Attribute)
                else target.id if isinstance(target, ast.Name) else None
            )
            if name in _POOL_MARKERS:
                return True
        if isinstance(node, ast.Attribute) and node.attr == "worker_setup":
            return True
    return False


def find_entry_points(model: ProgramModel) -> EntryPoints:
    """Discover the CLI / pool / engine roots of the program."""
    entries = EntryPoints()
    for func in model.functions():
        parts = func.module.split(".")
        if parts[-1] == "cli" and (
            func.name == "main" or func.name.startswith("_cmd_")
        ):
            entries.cli.add(func.ref)
        if _module_has_segments(func.module, (("sim", "engine"),)):
            public_func = func.class_name is None and not func.name.startswith("_")
            public_method = (
                func.class_name is not None
                and not func.class_name.startswith("_")
                and not func.name.startswith("_")
            )
            if public_func or public_method:
                entries.engine.add(func.ref)
        if func.name.startswith("_worker"):
            entries.pool.add(func.ref)
        info = model.modules[func.module]
        if _is_pool_dispatcher(info, func):
            # Over-approximate: every function value escaping a dispatcher
            # is treated as worker-side reachable.  For a fork-safety
            # analysis, too many roots is safe; too few is a missed race.
            entries.pool |= _escaped_function_refs(model, info, func)
    return entries


# ---------------------------------------------------------------------------
# Execution-context classification (loop / thread / worker)
# ---------------------------------------------------------------------------

#: Edge kinds that keep execution on the event loop.  ``executor`` is the
#: one hop that leaves it — that exclusion is the whole point.
_LOOP_EDGE_KINDS = frozenset({"call", "await", "spawn"})


@dataclass
class ExecutionContexts:
    """Which concurrency layer(s) each function may execute on.

    The three sets are not mutually exclusive: a helper called both from a
    coroutine and from an executor-shipped function is loop *and* thread
    context, and the rules must hold it to the stricter obligations of
    each.  Functions in none of the sets only run synchronously before any
    loop exists (import time, plain CLI paths).
    """

    #: Runs on the asyncio event loop: every ``async def`` plus every sync
    #: function reachable from one without an executor hop.
    loop: "set[str]" = field(default_factory=set)
    #: Runs on an executor thread: targets of ``to_thread`` /
    #: ``run_in_executor`` / ``submit`` edges, closed over sync calls.
    thread: "set[str]" = field(default_factory=set)
    #: Runs on the fork/spawn worker side of the evaluation pool.
    worker: "set[str]" = field(default_factory=set)
    #: BFS parents of the loop propagation, for shortest-chain reporting.
    loop_parents: "dict[str, str | None]" = field(default_factory=dict)

    def kinds_of(self, ref: str) -> "tuple[str, ...]":
        """The context labels of *ref*, deterministically ordered."""
        labels = []
        if ref in self.loop:
            labels.append("loop")
        if ref in self.thread:
            labels.append("thread")
        if ref in self.worker:
            labels.append("worker")
        return tuple(labels)

    def loop_path(self, ref: str) -> "list[str]":
        """The propagation chain that put *ref* in loop context."""
        if ref not in self.loop_parents:
            return [ref]
        chain = [ref]
        while self.loop_parents.get(chain[-1]) is not None:
            parent = self.loop_parents[chain[-1]]
            assert parent is not None
            chain.append(parent)
        return list(reversed(chain))


def classify_contexts(
    model: ProgramModel,
    graph: CallGraph,
    *,
    pool_reachable: "set[str] | None" = None,
) -> ExecutionContexts:
    """Propagate loop/thread/worker context over the kinded call graph.

    Loop context seeds at every ``async def`` (coroutines only ever run on
    a loop) and propagates through call/await/spawn edges; an ``executor``
    edge is the one hop that breaks the propagation and instead seeds
    *thread* context on its target, which then closes over plain sync
    calls.  Call sites inside a *nested* coroutine of an otherwise-sync
    function (``async def serve()`` inside ``_cmd_serve``) also seed loop
    context — nested defs fold into their parent in the symbol table, so
    without this the CLI's serve path would be invisible.  Worker context
    is the pool-reachable set, unchanged from PR 5.
    """
    ctxs = ExecutionContexts(worker=set(pool_reachable or ()))
    queue: "deque[str]" = deque()
    for func in model.functions():
        if isinstance(func.node, ast.AsyncFunctionDef):
            ctxs.loop.add(func.ref)
            ctxs.loop_parents.setdefault(func.ref, None)
            queue.append(func.ref)
    for caller in sorted(graph.sites):
        if caller in ctxs.loop:
            continue
        for site in graph.sites[caller]:
            if (
                site.in_async
                and site.kind != "executor"
                and site.callee is not None
                and site.callee not in ctxs.loop
            ):
                ctxs.loop.add(site.callee)
                ctxs.loop_parents.setdefault(caller, None)
                ctxs.loop_parents[site.callee] = caller
                queue.append(site.callee)
    while queue:
        current = queue.popleft()
        for callee in graph.callees_via(current, _LOOP_EDGE_KINDS):
            if callee not in ctxs.loop:
                ctxs.loop.add(callee)
                ctxs.loop_parents[callee] = current
                queue.append(callee)

    tqueue: "deque[str]" = deque()
    for caller in sorted(graph.sites):
        for site in graph.sites[caller]:
            if site.kind == "executor" and site.callee is not None:
                if site.callee not in ctxs.thread:
                    ctxs.thread.add(site.callee)
                    tqueue.append(site.callee)
    while tqueue:
        current = tqueue.popleft()
        for callee in graph.callees_via(current, frozenset({"call"})):
            if callee not in ctxs.thread:
                ctxs.thread.add(callee)
                tqueue.append(callee)
    return ctxs
