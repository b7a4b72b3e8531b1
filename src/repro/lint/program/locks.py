"""Lock identification and lock-order analysis for the async tier.

Deadlock potential is a *global* property — function A takes lock X then
calls into B which takes Y, while C takes Y then X — so this pass lives in
the whole-program package, layered on the kinded call graph:

* **lock discovery** — module-level globals and ``self.<attr>`` instance
  attributes bound to ``asyncio.Lock()`` / ``threading.Lock()`` (and the
  RLock/Condition/Semaphore variants), each with a program-wide identity
  (``module:NAME`` or ``module:Class.attr``) and a sync/async kind;
* **acquisitions** — every ``with`` / ``async with`` whose context
  expression resolves to a discovered lock (or, fallback, to a name
  containing "lock": unknown kind, still ordered);
* **order edges** — lock A precedes lock B when B is acquired lexically
  inside A's ``with`` body, or by any function transitively called from
  it (``call``/``await`` edges only: a spawned task does not run while
  the spawner still holds the lock, and an executor hop leaves the
  thread);
* **cycles** — elementary cycles of length >= 2 in that order graph are
  the ASYNC003 findings; awaits lexically under a plain (sync) ``with``
  are the ASYNC002 findings.

Like the rest of the program tier this is under-approximate on dynamic
dispatch (an unresolved call contributes no held-lock flow) and
over-approximate on paths (the order edge ignores branch conditions), and
the rules document that bias.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field

from repro.lint.engine import walk
from repro.lint.program.callgraph import CallGraph
from repro.lint.program.symbols import FunctionInfo, ModuleInfo, ProgramModel

__all__ = ["LockInfo", "Acquisition", "LockCycle", "LockAnalysis"]


#: Constructor names of the asyncio synchronization primitives.
_ASYNC_LOCK_CTORS = frozenset({"Lock", "Condition", "Semaphore", "BoundedSemaphore"})

#: Modules whose lock constructors block the calling *thread*.
_SYNC_LOCK_MODULES = frozenset({"threading", "multiprocessing"})
_SYNC_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Edge kinds across which a held lock stays held in the caller's frame.
_HELD_EDGE_KINDS = frozenset({"call", "await"})

#: Safety valves: the order graph of a hand-written codebase is tiny, but
#: cycle enumeration is exponential in the worst case.
_MAX_CYCLES = 32
_MAX_CYCLE_LEN = 16


@dataclass(frozen=True)
class LockInfo:
    """One discovered lock, with program-wide identity and kind."""

    ref: str  # "module:NAME" or "module:Class.attr"
    kind: str  # "async" | "sync" | "unknown"

    @property
    def display(self) -> str:
        """Short human-readable name (qualified part of the ref)."""
        return self.ref.partition(":")[2] or self.ref


@dataclass
class Acquisition:
    """One ``with`` / ``async with`` acquiring a discovered lock."""

    lock: LockInfo
    node: "ast.With | ast.AsyncWith"
    func: FunctionInfo
    is_async_with: bool


@dataclass
class LockCycle:
    """One lock-order cycle, with the witness of its first edge."""

    locks: "tuple[str, ...]"  # lock refs, in acquisition order
    #: (func ref, witness node, how B came to be ordered after A) per edge.
    witnesses: "list[tuple[str, ast.AST, str]]"


def _lock_ctor_kind(info: ModuleInfo, value: "ast.expr | None") -> "str | None":
    if not isinstance(value, ast.Call):
        return None
    chain = info.ctx.resolve_call_chain(value.func)
    if not chain or len(chain) < 2:
        return None
    if chain[0] == "asyncio" and chain[-1] in _ASYNC_LOCK_CTORS:
        return "async"
    if chain[0] in _SYNC_LOCK_MODULES and chain[-1] in _SYNC_LOCK_CTORS:
        return "sync"
    return None


class LockAnalysis:
    """Lock discovery, acquisitions, transitive holds, and the order graph."""

    def __init__(self, model: ProgramModel, graph: CallGraph) -> None:
        self.model = model
        self.graph = graph
        #: lock ref -> discovered lock.
        self.locks: "dict[str, LockInfo]" = {}
        #: function ref -> its lexical acquisitions, in source order.
        self.acquisitions: "dict[str, list[Acquisition]]" = {}
        #: function ref -> lock refs it (or any transitive callee) acquires.
        self.held: "dict[str, set[str]]" = {}
        #: (lock A, lock B) -> (func ref, witness node, description).
        self.order_edges: "dict[tuple[str, str], tuple[str, ast.AST, str]]" = {}
        self._discover()
        self._collect_acquisitions()
        self._close_held()
        self._build_order_edges()

    # -- discovery -----------------------------------------------------------
    def _discover(self) -> None:
        for module_name in sorted(self.model.modules):
            info = self.model.modules[module_name]
            for name in sorted(info.globals):
                gvar = info.globals[name]
                value = getattr(gvar.node, "value", None)
                kind = _lock_ctor_kind(info, value)
                if kind is not None:
                    self.locks[gvar.ref] = LockInfo(ref=gvar.ref, kind=kind)
            for qualname in sorted(info.functions):
                func = info.functions[qualname]
                if func.class_name is None or func.name != "__init__":
                    continue
                for node in walk(func.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            kind = _lock_ctor_kind(info, node.value)
                            if kind is not None:
                                ref = f"{module_name}:{func.class_name}.{target.attr}"
                                self.locks[ref] = LockInfo(ref=ref, kind=kind)

    # -- acquisitions --------------------------------------------------------
    def _lock_for_expr(
        self, info: ModuleInfo, func: FunctionInfo, expr: ast.expr
    ) -> "LockInfo | None":
        chain = info.ctx.resolve_call_chain(expr)
        if not chain:
            return None
        if chain[0] in ("self", "cls") and func.class_name and len(chain) == 2:
            ref = f"{info.name}:{func.class_name}.{chain[1]}"
            known = self.locks.get(ref)
            if known is not None:
                return known
            if "lock" in chain[1].lower():
                return LockInfo(ref=ref, kind="unknown")
            return None
        resolution = self.model.resolve_in_module(info, expr)
        if (
            resolution is not None
            and resolution.kind == "global"
            and resolution.global_var is not None
        ):
            ref = resolution.global_var.ref
            known = self.locks.get(ref)
            if known is not None:
                return known
            if "lock" in resolution.global_var.name.lower():
                return LockInfo(ref=ref, kind="unknown")
            return None
        if len(chain) == 1 and "lock" in chain[0].lower():
            # A function-local lock (parameter or local binding): identity
            # is per-function — enough for lexical nesting, invisible to
            # the interprocedural closure by design.
            return LockInfo(ref=f"{info.name}:{func.qualname}.<{chain[0]}>", kind="unknown")
        return None

    def _collect_acquisitions(self) -> None:
        for func in self.model.functions():
            info = self.model.modules[func.module]
            acqs: "list[Acquisition]" = []
            for node in walk(func.node):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                for item in node.items:
                    lock = self._lock_for_expr(info, func, item.context_expr)
                    if lock is not None:
                        acqs.append(
                            Acquisition(
                                lock=lock,
                                node=node,
                                func=func,
                                is_async_with=isinstance(node, ast.AsyncWith),
                            )
                        )
            acqs.sort(key=lambda a: (a.node.lineno, a.node.col_offset))
            self.acquisitions[func.ref] = acqs

    # -- transitive holds ----------------------------------------------------
    def _close_held(self) -> None:
        direct = {
            ref: {a.lock.ref for a in acqs}
            for ref, acqs in self.acquisitions.items()
        }
        self.held = {ref: set(locks) for ref, locks in direct.items()}
        changed = True
        while changed:
            changed = False
            for ref in self.held:
                for callee in self.graph.callees_via(ref, _HELD_EDGE_KINDS):
                    extra = self.held.get(callee, set()) - self.held[ref]
                    if extra:
                        self.held[ref] |= extra
                        changed = True

    # -- order edges ---------------------------------------------------------
    def _build_order_edges(self) -> None:
        for func in self.model.functions():
            acqs = self.acquisitions.get(func.ref, [])
            if not acqs:
                continue
            for outer in acqs:
                inside = {id(n) for n in walk(outer.node)} - {id(outer.node)}
                # Lexical nesting: an inner with under the outer's body.
                for inner in acqs:
                    if id(inner.node) in inside and inner.lock.ref != outer.lock.ref:
                        self.order_edges.setdefault(
                            (outer.lock.ref, inner.lock.ref),
                            (
                                func.ref,
                                inner.node,
                                f"{func.qualname} nests {inner.lock.display} "
                                f"inside {outer.lock.display}",
                            ),
                        )
                # Interprocedural: a call under the with body into a
                # function that (transitively) acquires another lock.
                for site in self.graph.sites.get(func.ref, []):
                    if site.callee is None or site.kind not in _HELD_EDGE_KINDS:
                        continue
                    if id(site.node) not in inside:
                        continue
                    for lock_ref in sorted(self.held.get(site.callee, set())):
                        if lock_ref == outer.lock.ref:
                            continue
                        callee_name = site.callee.partition(":")[2]
                        self.order_edges.setdefault(
                            (outer.lock.ref, lock_ref),
                            (
                                func.ref,
                                site.node,
                                f"{func.qualname} holds {outer.lock.display} "
                                f"while calling {callee_name}, which acquires "
                                f"{self.display_of(lock_ref)}",
                            ),
                        )

    def display_of(self, lock_ref: str) -> str:
        """Short human-readable name of a lock ref."""
        return lock_ref.partition(":")[2] or lock_ref

    # -- queries -------------------------------------------------------------
    def awaits_holding(self, acq: Acquisition) -> "list[ast.Await]":
        """Awaits lexically under *acq*'s with body (nested defs excluded)."""
        out: "list[ast.Await]" = []
        stack: "deque[ast.AST]" = deque(acq.node.body)
        while stack:
            node = stack.popleft()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # a nested def's awaits run later, lock released
            if isinstance(node, ast.Await):
                out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        out.sort(key=lambda n: (n.lineno, n.col_offset))
        return out

    def cycles(self) -> "list[LockCycle]":
        """Elementary lock-order cycles (length >= 2), deterministically."""
        adjacency: "dict[str, list[str]]" = {}
        for a, b in sorted(self.order_edges):
            adjacency.setdefault(a, []).append(b)
        found: "list[LockCycle]" = []
        seen_keys: "set[tuple[str, ...]]" = set()

        def visit(start: str, current: str, path: "list[str]") -> None:
            if len(found) >= _MAX_CYCLES or len(path) > _MAX_CYCLE_LEN:
                return
            for nxt in adjacency.get(current, []):
                if nxt == start and len(path) >= 2:
                    key = tuple(path)
                    if key not in seen_keys:
                        seen_keys.add(key)
                        witnesses = [
                            self.order_edges[(path[i], path[(i + 1) % len(path)])]
                            for i in range(len(path))
                        ]
                        found.append(LockCycle(locks=key, witnesses=witnesses))
                elif nxt > start and nxt not in path:
                    # Restricting intermediate nodes to > start makes each
                    # cycle's minimal lock its unique enumeration root.
                    visit(start, nxt, [*path, nxt])

        for start in sorted(adjacency):
            visit(start, start, [start])
        return found
