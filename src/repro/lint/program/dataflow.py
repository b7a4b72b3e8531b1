"""Intraprocedural CFG, reaching definitions, and side-effect inference.

Three layers, each feeding the rule packs:

* :func:`build_cfg` — a statement-granularity control-flow graph per
  function (``if``/``while``/``for``/``try``/``with``; ``break``,
  ``continue``, ``return`` and ``raise`` terminate their block);
* :func:`reaching_definitions` — the classic forward dataflow over that
  CFG: for every statement, which definitions of each local name may
  reach it.  FLOW001 uses this to track RNG provenance through local
  assignments instead of guessing from names;
* :class:`EffectAnalysis` — per-function *direct* side effects (module
  global writes, ambient-state reads, I/O, process-environment mutation,
  and synchronous may-block calls for the event-loop analysis)
  plus the call-graph walk that makes purity *transitive*: a measurement
  producer is rejected if any statically reachable callee is effectful.

Unresolved calls (dynamic dispatch, external libraries) contribute no
effect: the analysis is deliberately under-approximate, and each rule
documents that bias.  NumPy and the stdlib math surface are effect-free
for our purposes; the curated ban lists below cover the effectful parts
that matter to measurement trust (ambient RNG reseeding, filesystem and
environment writes, stdout).
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.lint.engine import walk
from repro.lint.program.callgraph import CallGraph, in_async_context
from repro.lint.program.symbols import (
    FunctionInfo,
    GlobalVar,
    ModuleInfo,
    ProgramModel,
)

__all__ = [
    "Block",
    "CFG",
    "build_cfg",
    "Definition",
    "ReachingDefs",
    "reaching_definitions",
    "Effect",
    "FunctionEffects",
    "EffectAnalysis",
]


# ---------------------------------------------------------------------------
# Control-flow graph
# ---------------------------------------------------------------------------

@dataclass
class Block:
    """A straight-line run of statements with successor block indices."""

    index: int
    stmts: "list[ast.stmt]" = field(default_factory=list)
    succs: "list[int]" = field(default_factory=list)


@dataclass
class CFG:
    """Statement-granularity control-flow graph of one function body."""

    blocks: "list[Block]" = field(default_factory=list)

    @property
    def entry(self) -> int:
        """Index of the entry block (always 0)."""
        return 0

    def statements(self) -> "Iterator[ast.stmt]":
        """Every statement, in block order."""
        for block in self.blocks:
            yield from block.stmts


class _CFGBuilder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self._loop_stack: "list[tuple[int, list[int]]]" = []  # (head, break-sources)

    def new_block(self) -> Block:
        block = Block(index=len(self.cfg.blocks))
        self.cfg.blocks.append(block)
        return block

    def link(self, src: Block, dst: Block) -> None:
        if dst.index not in src.succs:
            src.succs.append(dst.index)

    def build(self, body: "list[ast.stmt]") -> CFG:
        entry = self.new_block()
        exit_block = self._body(body, entry)
        # A dedicated exit block keeps "fell off the end" well-defined.
        final = self.new_block()
        if exit_block is not None:
            self.link(exit_block, final)
        return self.cfg

    def _body(self, body: "list[ast.stmt]", current: "Block | None") -> "Block | None":
        """Append *body* after *current*; returns the fall-through block."""
        for stmt in body:
            if current is None:  # unreachable code after return/raise/...
                current = self.new_block()
            current = self._statement(stmt, current)
        return current

    def _statement(self, stmt: ast.stmt, current: Block) -> "Block | None":
        if isinstance(stmt, ast.If):
            current.stmts.append(stmt)
            after = self.new_block()
            then_entry = self.new_block()
            self.link(current, then_entry)
            then_exit = self._body(stmt.body, then_entry)
            if then_exit is not None:
                self.link(then_exit, after)
            if stmt.orelse:
                else_entry = self.new_block()
                self.link(current, else_entry)
                else_exit = self._body(stmt.orelse, else_entry)
                if else_exit is not None:
                    self.link(else_exit, after)
            else:
                self.link(current, after)
            return after
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            # The loop header gets its own block so the back edge merges
            # body definitions into it (and through it, into the exit).
            header = self.new_block()
            header.stmts.append(stmt)  # For target is a def here
            self.link(current, header)
            body_entry = self.new_block()
            after = self.new_block()
            self.link(header, body_entry)
            self.link(header, after)  # zero-iteration / loop-exit path
            self._loop_stack.append((header.index, []))
            body_exit = self._body(stmt.body, body_entry)
            if body_exit is not None:
                self.link(body_exit, self.cfg.blocks[header.index])
            _, breaks = self._loop_stack.pop()
            for src in breaks:
                self.link(self.cfg.blocks[src], after)
            if stmt.orelse:
                else_exit = self._body(stmt.orelse, after)
                return else_exit
            return after
        if isinstance(stmt, (ast.Try,)):
            current.stmts.append(stmt)
            after = self.new_block()
            body_exit = self._body(stmt.body, self._linked_block(current))
            if body_exit is not None:
                self.link(body_exit, after)
            for handler in stmt.handlers:
                handler_exit = self._body(handler.body, self._linked_block(current))
                if handler_exit is not None:
                    self.link(handler_exit, after)
            if stmt.orelse:
                orelse_exit = self._body(stmt.orelse, self._linked_block(current))
                if orelse_exit is not None:
                    self.link(orelse_exit, after)
            if stmt.finalbody:
                final_exit = self._body(stmt.finalbody, after)
                return final_exit
            return after
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            current.stmts.append(stmt)  # optional_vars are defs here
            body_exit = self._body(stmt.body, self._linked_block(current))
            return body_exit
        if isinstance(stmt, (ast.Return, ast.Raise)):
            current.stmts.append(stmt)
            return None
        if isinstance(stmt, ast.Break):
            current.stmts.append(stmt)
            if self._loop_stack:
                self._loop_stack[-1][1].append(current.index)
            return None
        if isinstance(stmt, ast.Continue):
            current.stmts.append(stmt)
            if self._loop_stack:
                self.link(current, self.cfg.blocks[self._loop_stack[-1][0]])
            return None
        current.stmts.append(stmt)
        return current

    def _linked_block(self, predecessor: Block) -> Block:
        block = self.new_block()
        self.link(predecessor, block)
        return block


def build_cfg(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> CFG:
    """The statement-level CFG of *func*'s body."""
    return _CFGBuilder().build(func.body)


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Definition:
    """One definition of a local name."""

    name: str
    lineno: int
    #: The defining statement.
    stmt_id: int
    #: The assigned value when syntactically evident (None for loop
    #: targets, tuple unpacking, with-as bindings, parameters, ...).
    value: "ast.expr | None"

    @staticmethod
    def parameter(name: str) -> "Definition":
        """The implicit entry definition of a function parameter."""
        return Definition(name=name, lineno=0, stmt_id=-1, value=None)


def _defs_of_statement(stmt: ast.stmt) -> "list[Definition]":
    """The definitions a single statement generates."""
    defs: "list[Definition]" = []

    def bind(target: ast.expr, value: "ast.expr | None") -> None:
        if isinstance(target, ast.Name):
            defs.append(
                Definition(
                    name=target.id, lineno=stmt.lineno, stmt_id=id(stmt), value=value
                )
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bind(elt, None)
        elif isinstance(target, ast.Starred):
            bind(target.value, None)

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            bind(target, stmt.value)
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        bind(stmt.target, stmt.value)
    elif isinstance(stmt, ast.AugAssign):
        bind(stmt.target, None)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        bind(stmt.target, None)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                bind(item.optional_vars, None)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defs.append(
            Definition(name=stmt.name, lineno=stmt.lineno, stmt_id=id(stmt), value=None)
        )
    elif isinstance(stmt, ast.Import):
        for alias in stmt.names:
            defs.append(
                Definition(
                    name=(alias.asname or alias.name.split(".")[0]),
                    lineno=stmt.lineno,
                    stmt_id=id(stmt),
                    value=None,
                )
            )
    elif isinstance(stmt, ast.ImportFrom):
        for alias in stmt.names:
            defs.append(
                Definition(
                    name=(alias.asname or alias.name),
                    lineno=stmt.lineno,
                    stmt_id=id(stmt),
                    value=None,
                )
            )
    return defs


@dataclass
class ReachingDefs:
    """Reaching-definition sets of one function, queryable per statement."""

    cfg: CFG
    #: id(stmt) -> {name -> definitions that may reach the statement}.
    before: "dict[int, dict[str, frozenset[Definition]]]"

    def at(self, stmt: ast.stmt, name: str) -> "frozenset[Definition]":
        """Definitions of *name* that may reach *stmt* (empty if unknown)."""
        return self.before.get(id(stmt), {}).get(name, frozenset())


def reaching_definitions(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> ReachingDefs:
    """Forward may-analysis over the function's CFG (worklist fixpoint)."""
    cfg = build_cfg(func)
    params = [
        *(a.arg for a in func.args.posonlyargs),
        *(a.arg for a in func.args.args),
        *(a.arg for a in func.args.kwonlyargs),
    ]
    if func.args.vararg:
        params.append(func.args.vararg.arg)
    if func.args.kwarg:
        params.append(func.args.kwarg.arg)
    entry_state: "dict[str, frozenset[Definition]]" = {
        p: frozenset({Definition.parameter(p)}) for p in params
    }

    def transfer(
        state: "dict[str, frozenset[Definition]]", stmt: ast.stmt
    ) -> "dict[str, frozenset[Definition]]":
        new_defs = _defs_of_statement(stmt)
        if not new_defs:
            return state
        out = dict(state)
        for definition in new_defs:  # strong update: a def kills prior defs
            out[definition.name] = frozenset({definition})
        return out

    def merge(
        a: "dict[str, frozenset[Definition]]", b: "dict[str, frozenset[Definition]]"
    ) -> "dict[str, frozenset[Definition]]":
        out = dict(a)
        for name, defs in b.items():
            out[name] = out.get(name, frozenset()) | defs
        return out

    n = len(cfg.blocks)
    block_in: "list[dict[str, frozenset[Definition]]]" = [{} for _ in range(n)]
    block_in[cfg.entry] = dict(entry_state)
    preds: "list[list[int]]" = [[] for _ in range(n)]
    for block in cfg.blocks:
        for succ in block.succs:
            preds[succ].append(block.index)

    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            state = dict(entry_state) if block.index == cfg.entry else {}
            for p in preds[block.index]:
                out_p = block_in[p]
                for stmt in cfg.blocks[p].stmts:
                    out_p = transfer(out_p, stmt)
                state = merge(state, out_p)
            if state != block_in[block.index]:
                block_in[block.index] = state
                changed = True

    before: "dict[int, dict[str, frozenset[Definition]]]" = {}
    for block in cfg.blocks:
        state = block_in[block.index]
        for stmt in block.stmts:
            before[id(stmt)] = state
            state = transfer(state, stmt)
    return ReachingDefs(cfg=cfg, before=before)


# ---------------------------------------------------------------------------
# Side-effect (purity) inference
# ---------------------------------------------------------------------------

@dataclass
class Effect:
    """One direct side effect observed in a function body."""

    kind: str  # "global-write" | "io" | "env" | "ambient-rng" | "blocking"
    node: ast.AST
    detail: str
    target: "GlobalVar | None" = None
    #: Whether the effect sits under a ``with <...lock...>:`` guard.
    lock_guarded: bool = False
    #: Whether the effect is lexically inside an ``async def`` — directly
    #: on the event loop, even when the enclosing indexed function is sync
    #: (nested coroutines fold into their parent).
    in_async: bool = False


@dataclass
class FunctionEffects:
    """Direct effects and ambient reads of one function."""

    ref: str
    effects: "list[Effect]" = field(default_factory=list)
    #: Module-level globals this function reads, with the reading node.
    global_reads: "list[tuple[GlobalVar, ast.AST]]" = field(default_factory=list)


#: Builtin calls that are I/O no matter the receiver.
_IO_BUILTINS = frozenset({"print", "open", "input", "breakpoint"})

#: Dotted-chain prefixes whose calls mutate the process or filesystem.
_IO_CHAIN_PREFIXES = (
    ("os", "remove"), ("os", "unlink"), ("os", "rename"), ("os", "mkdir"),
    ("os", "makedirs"), ("os", "rmdir"), ("os", "chdir"), ("os", "putenv"),
    ("shutil",), ("subprocess",),
    ("sys", "stdout"), ("sys", "stderr"), ("sys", "exit"),
    ("json", "dump"),
)

#: Calls that reseed or mutate ambient process-global RNG state.
_AMBIENT_RNG_CHAINS = (
    ("random", "seed"), ("random", "setstate"),
    ("numpy", "random", "seed"), ("numpy", "random", "set_state"),
)

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
})

#: Builtin calls that block the calling thread on the filesystem or tty.
_BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Dotted-chain prefixes whose *synchronous* calls park the calling
#: thread: sleeps, raw sockets, subprocesses, filesystem trees.
_BLOCKING_CHAIN_PREFIXES = (
    ("time", "sleep"), ("socket",), ("subprocess",), ("select",),
    ("shutil",), ("os", "fsync"), ("urllib", "request"), ("requests",),
)

#: Method names that block their caller: pathlib disk IO, thread/pool/
#: queue joins, and blocking lock acquisition.  ``.join()`` counts only
#: with zero arguments — ``",".join(parts)`` and ``os.path.join(a, b)``
#: are string/path operations, and ``thread.join(timeout)`` is bounded.
_BLOCKING_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes", "open",
    "join", "acquire",
})


def _blocking_detail(info: ModuleInfo, node: ast.Call) -> "str | None":
    """Why *node* may block its thread, or None when it cannot."""
    if isinstance(node.func, ast.Name) and node.func.id in _BLOCKING_BUILTINS:
        return f"{node.func.id}()"
    chain = info.ctx.resolve_call_chain(node.func)
    if chain and _chain_matches(chain, _BLOCKING_CHAIN_PREFIXES):
        return f"{'.'.join(chain)}()"
    if isinstance(node.func, ast.Attribute) and node.func.attr in _BLOCKING_METHODS:
        if node.func.attr == "join" and (node.args or node.keywords):
            return None
        return f".{node.func.attr}()"
    return None


def _chain_matches(chain: "list[str]", prefixes: "tuple[tuple[str, ...], ...]") -> bool:
    return any(tuple(chain[: len(p)]) == p for p in prefixes)


def _local_names(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> "set[str]":
    """Names bound in *func*'s own frame (parameters + any assignment)."""
    names = {
        *(a.arg for a in func.args.posonlyargs),
        *(a.arg for a in func.args.args),
        *(a.arg for a in func.args.kwonlyargs),
    }
    if func.args.vararg:
        names.add(func.args.vararg.arg)
    if func.args.kwarg:
        names.add(func.args.kwarg.arg)
    declared_global: "set[str]" = set()
    for node in walk(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared_global.update(node.names)
        for definition in _defs_of_statement(node) if isinstance(node, ast.stmt) else ():
            names.add(definition.name)
        if isinstance(node, ast.comprehension) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names - declared_global


def _is_lock_guarded(info: ModuleInfo, node: ast.AST) -> bool:
    """Whether *node* executes under a ``with`` whose context names a lock."""
    for ancestor in info.ctx.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if "lock" in ast.unparse(item.context_expr).lower():
                    return True
    return False


class EffectAnalysis:
    """Direct + transitive side-effect facts over the whole program."""

    def __init__(self, model: ProgramModel, graph: CallGraph) -> None:
        self.model = model
        self.graph = graph
        self._effects: "dict[str, FunctionEffects]" = {}
        for func in model.functions():
            self._effects[func.ref] = self._analyze(func)
        #: Globals mutated by *some function* (as opposed to import-time
        #: top-level population): the "runtime-mutated" ambient-state set.
        self.runtime_mutated: "set[str]" = {
            effect.target.ref
            for fe in self._effects.values()
            for effect in fe.effects
            if effect.kind == "global-write" and effect.target is not None
        }

    def effects_of(self, ref: str) -> FunctionEffects:
        """The direct effects of function *ref* (empty if unknown)."""
        return self._effects.get(ref, FunctionEffects(ref=ref))

    # -- transitive queries --------------------------------------------------
    def first_effect_path(
        self,
        start: str,
        *,
        sanctioned: "Callable[[str], bool] | None" = None,
        include: "Callable[[Effect], bool] | None" = None,
    ) -> "tuple[list[str], Effect] | None":
        """BFS from *start*: the shortest call chain to a direct effect.

        ``sanctioned(module_name)`` exempts whole modules (their effects
        and their callees are skipped); ``include(effect)`` narrows which
        effect kinds count.  Returns ``(call chain, effect)`` or ``None``
        when every reachable function is clean.
        """
        from collections import deque

        parents: "dict[str, str | None]" = {start: None}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            func = self.model.function(current)
            if func is not None and sanctioned is not None and sanctioned(func.module):
                continue
            for effect in self.effects_of(current).effects:
                if include is not None and not include(effect):
                    continue
                chain = [current]
                while parents[chain[-1]] is not None:
                    chain.append(parents[chain[-1]])  # type: ignore[arg-type]
                return list(reversed(chain)), effect
            for callee in self.graph.callees(current):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return None

    def first_read_path(
        self,
        start: str,
        *,
        sanctioned: "Callable[[str], bool] | None" = None,
        reads: "Callable[[GlobalVar], bool] | None" = None,
    ) -> "tuple[list[str], GlobalVar, ast.AST] | None":
        """Like :meth:`first_effect_path`, for ambient global *reads*."""
        from collections import deque

        parents: "dict[str, str | None]" = {start: None}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            func = self.model.function(current)
            if func is not None and sanctioned is not None and sanctioned(func.module):
                continue
            for gvar, node in self.effects_of(current).global_reads:
                if reads is not None and not reads(gvar):
                    continue
                chain = [current]
                while parents[chain[-1]] is not None:
                    chain.append(parents[chain[-1]])  # type: ignore[arg-type]
                return list(reversed(chain)), gvar, node
            for callee in self.graph.callees(current):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return None

    # -- per-function direct analysis ---------------------------------------
    def _analyze(self, func: FunctionInfo) -> FunctionEffects:
        info = self.model.modules[func.module]
        out = FunctionEffects(ref=func.ref)
        locals_ = _local_names(func.node)
        declared_global: "set[str]" = set()
        for node in walk(func.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)

        def global_of(name: str) -> "GlobalVar | None":
            return info.globals.get(name)

        def resolve_global(node: ast.AST) -> "GlobalVar | None":
            """A Name/Attribute chain resolving to some module's global."""
            if isinstance(node, ast.Name):
                if node.id in locals_ and node.id not in declared_global:
                    return None
                return global_of(node.id)
            resolution = self.model.resolve_in_module(info, node)
            if resolution is not None and resolution.kind == "global":
                return resolution.global_var
            return None

        def record_write(node: ast.AST, base: ast.AST, how: str) -> None:
            gvar = resolve_global(base)
            if gvar is None:
                return
            out.effects.append(
                Effect(
                    kind="global-write",
                    node=node,
                    detail=f"{how} module-level {gvar.module}.{gvar.name}",
                    target=gvar,
                    lock_guarded=_is_lock_guarded(info, node),
                    in_async=in_async_context(info, node),
                )
            )

        for node in walk(func.node):
            # -- writes ------------------------------------------------------
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared_global:
                        record_write(node, target, "rebinds")
                    elif isinstance(target, ast.Subscript):
                        record_write(node, target.value, "writes into")
                    elif isinstance(target, ast.Attribute):
                        record_write(node, target.value, "writes attribute on")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        record_write(node, target.value, "deletes from")
                    elif isinstance(target, ast.Name) and target.id in declared_global:
                        record_write(node, target, "deletes")
            # -- calls -------------------------------------------------------
            elif isinstance(node, ast.Call):
                blocking = _blocking_detail(info, node)
                if blocking is not None and not isinstance(
                    info.ctx.parent(node), ast.Await
                ):
                    # An awaited call is cooperative by construction (the
                    # coroutine yields); only the synchronous form can park
                    # the calling thread.  This is also what keeps ASYNC001
                    # and CON003 from ever reporting the same line.
                    out.effects.append(
                        Effect(
                            kind="blocking",
                            node=node,
                            detail=f"synchronous {blocking} may block",
                            in_async=in_async_context(info, node),
                        )
                    )
                if isinstance(node.func, ast.Name) and node.func.id in _IO_BUILTINS:
                    out.effects.append(
                        Effect(kind="io", node=node, detail=f"calls {node.func.id}()")
                    )
                    continue
                chain = info.ctx.resolve_call_chain(node.func)
                if chain:
                    if _chain_matches(chain, _AMBIENT_RNG_CHAINS):
                        out.effects.append(
                            Effect(
                                kind="ambient-rng",
                                node=node,
                                detail=f"mutates ambient RNG state via {'.'.join(chain)}()",
                            )
                        )
                        continue
                    if _chain_matches(chain, _IO_CHAIN_PREFIXES):
                        out.effects.append(
                            Effect(
                                kind="io",
                                node=node,
                                detail=f"calls {'.'.join(chain)}()",
                            )
                        )
                        continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_METHODS
                ):
                    record_write(node, node.func.value, f".{node.func.attr}() on")
            # -- environment -------------------------------------------------
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                chain = info.ctx.resolve_call_chain(node.value)
                if chain and tuple(chain[:2]) == ("os", "environ"):
                    out.effects.append(
                        Effect(
                            kind="env", node=node, detail="writes os.environ"
                        )
                    )
            # -- ambient reads ----------------------------------------------
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in locals_ or node.id in declared_global:
                    gvar = global_of(node.id)
                    if gvar is not None:
                        out.global_reads.append((gvar, node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                parent = info.ctx.parent(node)
                if isinstance(parent, ast.Attribute):
                    continue  # only resolve the full chain once
                resolution = self.model.resolve_in_module(info, node)
                if resolution is not None and resolution.kind == "global":
                    if resolution.global_var is not None:
                        out.global_reads.append((resolution.global_var, node))
        return out
