"""Value-range and unit abstract interpretation over the program CFG.

The model's numerical identities (Eqs. 2/3, 9-11, cycle conservation)
are implemented four times — reference loop, fast path, batch SoA
kernel, tier-0 surrogate — and until now the only guard against
divergence was dynamic (bit-identity matrices, hypothesis properties).
This module is the static tier for that bug class, in three layers:

* an **interval domain** (:class:`Interval`) in the Cousot & Cousot
  style: per-variable ``[lo, hi]`` bounds with open/closed endpoints,
  widening once a block has been visited :data:`WIDEN_AFTER` times and
  a single narrowing sweep after the fixpoint.  Sign and non-negativity
  are derived predicates of the interval, not a separate lattice;
* a **unit-kind lattice** (cycles / instructions / accesses / bytes /
  ratio, plus the polymorphic ``scalar`` for literals and the ``?``
  unknown) seeded from a name-convention table that encodes the
  ``@satisfies`` contract vocabulary, ``MachineConfig`` and report
  field names.  Unit arithmetic is deliberately coarse: mismatches are
  reported only when *both* operands have a concrete dimension;
* an **abstract interpreter** over the PR 5 CFG (`dataflow.build_cfg`)
  that refines branches from ``if``/``assert`` guards, ``min``/``max``/
  ``np.clip`` clamp idioms and truthiness tests, tracks copy aliases
  and *expression fingerprints* (so ``if i >= rob: ... w[i - rob]``
  proves the index non-negative even though the domain is
  non-relational), and propagates return intervals interprocedurally
  along the call graph for :data:`VALUE_SCOPE` packages.

On top of the interpreter, :func:`extract_model_constants` unifies
literal model constants per symbolic role across sibling
implementations (scalar/fast engine statistics vs. the tier-0
surrogate) for the DRIFT001 rule.

Everything here is *advisory-sound by construction*: the abstract value
of an expression always contains every concrete value the expression
can take under the modeled semantics (the hypothesis soundness test in
``tests/lint/test_program_values.py`` fuzzes exactly this claim).
Unmodeled constructs (comprehensions, nested defs, ``**``/bit ops,
NaN) evaluate to ⊤, never to something narrower.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field, replace

from repro.lint.engine import walk
from repro.lint.program.callgraph import (
    CallGraph,
    _module_has_segments,
    _resolve_callee,
)
from repro.lint.program.dataflow import CFG, build_cfg
from repro.lint.program.symbols import FunctionInfo, ModuleInfo, ProgramModel

__all__ = [
    "Interval",
    "AbstractValue",
    "TOP_VALUE",
    "UNIT_UNKNOWN",
    "UNIT_SCALAR",
    "UNIT_RATIO",
    "UNIT_CYCLES",
    "UNIT_INSTRUCTIONS",
    "UNIT_ACCESSES",
    "UNIT_BYTES",
    "unit_of_name",
    "unit_add",
    "unit_mul",
    "unit_div",
    "units_clash",
    "DivisionSite",
    "SubscriptSite",
    "UnitClash",
    "FunctionResult",
    "ValueAnalysis",
    "VALUE_SCOPE",
    "ConstantSite",
    "ConstantRole",
    "MODEL_CONSTANT_ROLES",
    "RoleReading",
    "extract_model_constants",
]

_INF = math.inf

#: Widen a block's in-state once it has been re-joined this many times.
WIDEN_AFTER = 3

#: Interprocedural rounds: round 1 computes leaf summaries, round 2
#: propagates them one level up (the model call chains are shallow;
#: deeper nests simply stay at ⊤, which is sound).
SUMMARY_ROUNDS = 2

#: Packages the value analysis covers (segment match, fixture-friendly).
VALUE_SCOPE: "tuple[tuple[str, ...], ...]" = (("sim",), ("core",), ("analysis",))


# ---------------------------------------------------------------------------
# Interval domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A closed/open real interval ``[lo, hi]``; ⊤ is ``[-inf, inf]``.

    Open endpoint flags exist so branch refinement can distinguish
    ``x > 0`` from ``x >= 0`` — arithmetic drops openness (closing an
    endpoint only ever *widens* the interval, so this stays sound).
    """

    lo: float = -_INF
    hi: float = _INF
    lo_open: bool = False
    hi_open: bool = False

    # -- predicates --------------------------------------------------------
    @property
    def is_top(self) -> bool:
        return self.lo == -_INF and self.hi == _INF

    def contains(self, v: float) -> bool:
        if v < self.lo or (v == self.lo and self.lo_open):
            return False
        if v > self.hi or (v == self.hi and self.hi_open):
            return False
        return True

    def contains_zero(self) -> bool:
        return self.contains(0.0)

    @property
    def nonneg(self) -> bool:
        """Provably ``>= 0``."""
        return self.lo >= 0

    @property
    def positive(self) -> bool:
        """Provably ``> 0``."""
        return self.lo > 0 or (self.lo == 0 and self.lo_open)

    # -- lattice -----------------------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        # Env.copy() shares values, so most merges join a value with
        # itself; that join (and widen below) is exactly self.
        if other is self:
            return self
        if self.lo < other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo < self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open and other.lo_open
        if self.hi > other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi > self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open and other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def meet(self, other: "Interval") -> "Interval | None":
        """Intersection; ``None`` when empty (infeasible state)."""
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
        return Interval(lo, hi, lo_open, hi_open)

    def widen(self, newer: "Interval") -> "Interval":
        """Classic interval widening: unstable bounds jump to infinity.

        Stable bounds keep their endpoints (and stay open only when both
        sides agree they are open — openness must never tighten here).
        """
        if newer is self:
            return self
        if newer.lo < self.lo:
            lo, lo_open = -_INF, False
        else:
            lo = self.lo
            lo_open = self.lo_open and (newer.lo > self.lo or newer.lo_open)
        if newer.hi > self.hi:
            hi, hi_open = _INF, False
        else:
            hi = self.hi
            hi_open = self.hi_open and (newer.hi < self.hi or newer.hi_open)
        return Interval(lo, hi, lo_open, hi_open)

    # -- arithmetic --------------------------------------------------------
    def add(self, other: "Interval") -> "Interval":
        return Interval(_safe(self.lo + other.lo, -_INF), _safe(self.hi + other.hi, _INF))

    def sub(self, other: "Interval") -> "Interval":
        return Interval(_safe(self.lo - other.hi, -_INF), _safe(self.hi - other.lo, _INF))

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.hi_open, self.lo_open)

    def mul(self, other: "Interval") -> "Interval":
        cands = [
            _mul_bound(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(min(cands), max(cands))

    def div(self, other: "Interval") -> "Interval":
        if other.contains_zero():
            return TOP_INTERVAL
        cands = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                if b == 0:
                    continue
                q = a / b if not (math.isinf(a) and math.isinf(b)) else 0.0
                if math.isinf(a) and not math.isinf(b):
                    q = a if b > 0 else -a
                cands.append(q)
        if not cands:
            return TOP_INTERVAL
        return Interval(min(cands), max(cands))

    def floordiv(self, other: "Interval") -> "Interval":
        q = self.div(other)
        return Interval(_safe(q.lo - 1, -_INF), _safe(q.hi + 1, _INF))

    def mod(self, other: "Interval") -> "Interval":
        if other.positive:
            return Interval(0, other.hi)
        if other.hi < 0:
            return Interval(other.lo, 0)
        return TOP_INTERVAL

    def min_with(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return Interval(self.lo, self.hi, self.lo_open, self.hi_open)
        if self.hi <= 0:
            return self.neg()
        return Interval(0, max(-self.lo, self.hi))

    def bounds(self) -> "list[float | str]":
        """JSON-safe ``[lo, hi]`` (infinities become strings)."""
        return [_jsonable(self.lo), _jsonable(self.hi)]

    def __str__(self) -> str:
        lo = "(" if self.lo_open else "["
        hi = ")" if self.hi_open else "]"
        return f"{lo}{_pretty(self.lo)}, {_pretty(self.hi)}{hi}"


TOP_INTERVAL = Interval()


def _safe(v: float, default: float) -> float:
    return default if math.isnan(v) else v


def _mul_bound(a: float, b: float) -> float:
    if a == 0 or b == 0:
        return 0.0
    return a * b


def _jsonable(v: float) -> "float | str":
    if v == _INF:
        return "inf"
    if v == -_INF:
        return "-inf"
    return v


def _pretty(v: float) -> str:
    if v == _INF:
        return "inf"
    if v == -_INF:
        return "-inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:g}"


def point(v: float) -> Interval:
    return Interval(v, v)


# ---------------------------------------------------------------------------
# Unit-kind lattice
# ---------------------------------------------------------------------------

UNIT_UNKNOWN = "?"
#: Dimensionless-polymorphic: numeric literals and folded constants.
UNIT_SCALAR = "scalar"
UNIT_RATIO = "ratio"
UNIT_CYCLES = "cycles"
UNIT_INSTRUCTIONS = "instructions"
UNIT_ACCESSES = "accesses"
UNIT_BYTES = "bytes"

#: Units with a concrete dimension (clashes are only reported between two
#: of these; ``scalar`` and ``?`` are compatible with everything).
DIMENSIONED = frozenset(
    {UNIT_RATIO, UNIT_CYCLES, UNIT_INSTRUCTIONS, UNIT_ACCESSES, UNIT_BYTES}
)

#: Report/contract field names with a known unit — the vocabulary of the
#: ``@satisfies`` contract table (lpmr_definitions, report_bounds, ...)
#: and the LPMRReport/SurrogatePrediction constructors.
FIELD_UNITS: "dict[str, str]" = {
    "lpmr1": UNIT_RATIO,
    "lpmr2": UNIT_RATIO,
    "mr1": UNIT_RATIO,
    "mr2": UNIT_RATIO,
    "f_mem": UNIT_RATIO,
    "overlap_ratio_cm": UNIT_RATIO,
    "eta_combined": UNIT_RATIO,
    "camat1": UNIT_CYCLES,
    "camat2": UNIT_CYCLES,
    "cpi": UNIT_CYCLES,
    "cpi_exe": UNIT_CYCLES,
    "hit_time1": UNIT_CYCLES,
}


def unit_of_name(name: str) -> str:
    """Unit kind from the model's naming conventions (``?`` if none).

    The table mirrors the ``@satisfies`` contract vocabulary and the
    MachineConfig / report field names; it is intentionally narrow —
    a wrong ``?`` only loses precision, a wrong concrete unit creates
    false clashes.
    """
    n = name.lower().lstrip("_")
    if n in FIELD_UNITS:
        return FIELD_UNITS[n]
    # ratios / fractions / probabilities
    if "ratio" in n or "fraction" in n or "frac" in n:
        return UNIT_RATIO
    # NOTE: bare "overlap*" is deliberately absent — `overlapped` in the
    # measurement kernels is a cycle count; only overlap_*ratio* names
    # (caught above) are ratios.
    if n.startswith(("lpmr", "mr", "eta", "rho")):
        return UNIT_RATIO
    if n.endswith(("_rate", "_prob", "_probability")):
        return UNIT_RATIO
    # cycle-valued latencies and times
    if "cycle" in n:
        return UNIT_CYCLES
    if "latency" in n or "delay" in n or "hit_time" in n:
        return UNIT_CYCLES
    if n.startswith(("cpi", "camat", "amp", "stall")):
        return UNIT_CYCLES
    # event counts
    if n in ("n_instructions", "instructions") or n.endswith("_instructions"):
        return UNIT_INSTRUCTIONS
    if n in ("n_accesses", "accesses", "n_mem_ops") or n.endswith("_accesses"):
        return UNIT_ACCESSES
    if n.endswith("_bytes") or n in ("size_bytes", "line_size"):
        return UNIT_BYTES
    return UNIT_UNKNOWN


def unit_join(a: str, b: str) -> str:
    """Control-flow merge of two units."""
    if a == b:
        return a
    if a == UNIT_SCALAR:
        return b
    if b == UNIT_SCALAR:
        return a
    return UNIT_UNKNOWN


def units_clash(a: str, b: str) -> bool:
    """True when adding/comparing *a* and *b* mixes two concrete dimensions."""
    return a in DIMENSIONED and b in DIMENSIONED and a != b


def unit_add(a: str, b: str) -> str:
    """Result unit of ``a + b`` / ``a - b`` (clash reported separately)."""
    if units_clash(a, b):
        return UNIT_UNKNOWN
    if a == b:
        return a
    if a == UNIT_SCALAR:
        return b
    if b == UNIT_SCALAR:
        return a
    return UNIT_UNKNOWN


def unit_mul(a: str, b: str) -> str:
    if a == UNIT_SCALAR:
        return b
    if b == UNIT_SCALAR:
        return a
    if a == UNIT_RATIO and b == UNIT_RATIO:
        return UNIT_RATIO
    if a == UNIT_RATIO and b in DIMENSIONED:
        return b
    if b == UNIT_RATIO and a in DIMENSIONED:
        return a
    return UNIT_UNKNOWN


def unit_div(num: str, den: str) -> str:
    if den == UNIT_SCALAR:
        return num
    if num in DIMENSIONED and num == den:
        return UNIT_RATIO
    if den == UNIT_RATIO and num in DIMENSIONED:
        return num
    return UNIT_UNKNOWN


# ---------------------------------------------------------------------------
# Abstract values and environments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractValue:
    interval: Interval = TOP_INTERVAL
    unit: str = UNIT_UNKNOWN

    def join(self, other: "AbstractValue") -> "AbstractValue":
        if other is self:
            return self
        return AbstractValue(
            self.interval.join(other.interval), unit_join(self.unit, other.unit)
        )


TOP_VALUE = AbstractValue()


@dataclass
class Env:
    """Abstract state: variable values + expression-fingerprint facts.

    ``constraints`` keys are normalized expression fingerprints (names
    resolved through ``aliases``), which is how the non-relational
    domain still proves ``i - rob >= 0`` after ``if i >= rob:`` — the
    guard and the index normalize to the same key.
    """

    vars: "dict[str, AbstractValue]" = field(default_factory=dict)
    constraints: "dict[str, Interval]" = field(default_factory=dict)
    aliases: "dict[str, str]" = field(default_factory=dict)

    def copy(self) -> "Env":
        return Env(dict(self.vars), dict(self.constraints), dict(self.aliases))

    def canonical(self, name: str) -> str:
        seen = set()
        while name in self.aliases and name not in seen:
            seen.add(name)
            name = self.aliases[name]
        return name

    def kill(self, name: str) -> None:
        """Invalidate every fact mentioning *name* (it was reassigned)."""
        tag = f"n:{name};"
        self.constraints = {
            k: v for k, v in self.constraints.items() if tag not in k
        }
        self.aliases = {
            a: c for a, c in self.aliases.items() if a != name and c != name
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Env)
            and self.vars == other.vars
            and self.constraints == other.constraints
            and self.aliases == other.aliases
        )


def env_join(a: "Env | None", b: "Env | None") -> "Env | None":
    if a is None:
        return b.copy() if b is not None else None
    if b is None:
        return a.copy()
    vars_ = {
        n: a.vars[n].join(b.vars[n]) for n in a.vars.keys() & b.vars.keys()
    }
    constraints = {}
    for k in a.constraints.keys() & b.constraints.keys():
        constraints[k] = a.constraints[k].join(b.constraints[k])
    aliases = {
        n: a.aliases[n]
        for n in a.aliases.keys() & b.aliases.keys()
        if a.aliases[n] == b.aliases[n]
    }
    return Env(vars_, constraints, aliases)


def env_widen(old: Env, new: Env) -> Env:
    vars_ = {}
    for n in old.vars.keys() & new.vars.keys():
        ov, nv = old.vars[n], new.vars[n]
        vars_[n] = AbstractValue(ov.interval.widen(nv.interval), unit_join(ov.unit, nv.unit))
    constraints = {
        k: old.constraints[k].widen(new.constraints[k])
        for k in old.constraints.keys() & new.constraints.keys()
    }
    aliases = {
        n: old.aliases[n]
        for n in old.aliases.keys() & new.aliases.keys()
        if old.aliases[n] == new.aliases[n]
    }
    return Env(vars_, constraints, aliases)


def _expr_key(expr: ast.AST, env: Env) -> "str | None":
    """Canonical fingerprint of a pure arithmetic expression (or None)."""
    if isinstance(expr, ast.Name):
        return f"n:{env.canonical(expr.id)};"
    if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float)):
        return f"c:{float(expr.value)}"
    if isinstance(expr, ast.Attribute):
        base = _expr_key(expr.value, env)
        return None if base is None else f"a:{base}.{expr.attr};"
    if isinstance(expr, ast.BinOp):
        op = _BINOP_NAMES.get(type(expr.op))
        if op is None:
            return None
        left = _expr_key(expr.left, env)
        right = _expr_key(expr.right, env)
        if left is None or right is None:
            return None
        return f"b:{op}({left},{right})"
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        inner = _expr_key(expr.operand, env)
        return None if inner is None else f"u:neg({inner})"
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in _PURE_BUILTINS
        and not expr.keywords
    ):
        parts = [_expr_key(a, env) for a in expr.args]
        if all(p is not None for p in parts):
            return f"f:{expr.func.id}({','.join(parts)})"  # type: ignore[arg-type]
    return None


#: Effect-free builtins worth fingerprinting: a guard on ``len(xs)`` or
#: ``abs(x)`` then refines later uses of the same call expression.
_PURE_BUILTINS = frozenset({"abs", "len", "min", "max", "float", "int"})

_BINOP_NAMES = {
    ast.Add: "add",
    ast.Sub: "sub",
    ast.Mult: "mul",
    ast.Div: "div",
    ast.FloorDiv: "fdiv",
    ast.Mod: "mod",
}


# ---------------------------------------------------------------------------
# Recorded sites (consumed by the VAL/UNIT rule packs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisionSite:
    node: ast.AST
    denom: AbstractValue
    denom_text: str


@dataclass(frozen=True)
class SubscriptSite:
    node: ast.AST
    index: AbstractValue
    index_text: str
    #: ``a[-1]`` style deliberate from-the-end indexing.
    literal_negative: bool
    #: Index is ``x - y`` with both operands provably non-negative — the
    #: PR-8 hetero-ROB gather shape, suspicious even when the interval
    #: itself is ⊤.
    sub_nonneg_pair: bool


@dataclass(frozen=True)
class UnitClash:
    node: ast.AST
    kind: str  # "add" | "sub" | "compare" | "minmax" | "return-field"
    left: str
    right: str
    text: str
    field_name: "str | None" = None


@dataclass
class FunctionResult:
    func: FunctionInfo
    returns: AbstractValue = TOP_VALUE
    divisions: "list[DivisionSite]" = field(default_factory=list)
    subscripts: "list[SubscriptSite]" = field(default_factory=list)
    clashes: "list[UnitClash]" = field(default_factory=list)


def _text(node: ast.AST, limit: int = 60) -> str:
    try:
        out = ast.unparse(node)
    except ValueError:  # pragma: no cover - unparse is total on parsed trees
        out = "<expr>"
    return out if len(out) <= limit else out[: limit - 3] + "..."


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

class _Interp:
    """One function's abstract interpretation (fixpoint + record sweep)."""

    def __init__(
        self,
        model: ProgramModel,
        info: ModuleInfo,
        func: FunctionInfo,
        summaries: "dict[str, AbstractValue]",
    ) -> None:
        self.model = model
        self.info = info
        self.func = func
        self.summaries = summaries
        self.result = FunctionResult(func)
        self._recording = False
        self._ret: "AbstractValue | None" = None

    # -- entry -------------------------------------------------------------
    def run(self, record: bool) -> FunctionResult:
        cfg = build_cfg(self.func.node)
        in_states: "list[Env | None]" = [None] * len(cfg.blocks)
        in_states[cfg.entry] = self._seed_env()
        visits = [0] * len(cfg.blocks)
        work = [cfg.entry]
        budget = 30 * len(cfg.blocks) + 200
        while work and budget > 0:
            budget -= 1
            idx = work.pop()
            env = in_states[idx]
            if env is None:
                continue
            for succ, out in self._block_outs(cfg, idx, env):
                joined = env_join(in_states[succ], out)
                if joined == in_states[succ]:
                    continue
                visits[succ] += 1
                if visits[succ] > WIDEN_AFTER and in_states[succ] is not None:
                    joined = env_widen(in_states[succ], joined)
                    if joined == in_states[succ]:
                        continue
                in_states[succ] = joined
                if succ not in work:
                    work.append(succ)
        # One narrowing sweep: recompute each in-state from predecessor
        # outs without widening (standard decreasing iteration).
        preds: "dict[int, list[int]]" = {}
        for block in cfg.blocks:
            for succ in block.succs:
                preds.setdefault(succ, []).append(block.index)
        for block in cfg.blocks:
            if block.index == cfg.entry:
                continue
            narrowed: "Env | None" = None
            for p in preds.get(block.index, []):
                env = in_states[p]
                if env is None:
                    continue
                for succ, out in self._block_outs(cfg, p, env):
                    if succ == block.index:
                        narrowed = env_join(narrowed, out)
            if narrowed is not None:
                in_states[block.index] = narrowed
        # Record sweep over the final states.
        self._ret = None
        self._recording = record
        for block in cfg.blocks:
            env = in_states[block.index]
            if env is None:
                continue
            env = env.copy()
            for stmt in block.stmts:
                self._transfer(env, stmt)
        self._recording = False
        self.result.returns = self._ret if self._ret is not None else TOP_VALUE
        if self.result.returns.unit == UNIT_UNKNOWN:
            fallback = unit_of_name(self.func.name)
            if fallback != UNIT_UNKNOWN:
                self.result.returns = replace(self.result.returns, unit=fallback)
        return self.result

    def _seed_env(self) -> Env:
        env = Env()
        args = self.func.node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.arg in ("self", "cls"):
                continue
            env.vars[arg.arg] = AbstractValue(TOP_INTERVAL, unit_of_name(arg.arg))
        return env

    # -- block transfer ----------------------------------------------------
    def _block_outs(
        self, cfg: CFG, idx: int, env: Env
    ) -> "list[tuple[int, Env]]":
        """Out-edges of a block with branch refinement applied."""
        block = cfg.blocks[idx]
        env = env.copy()
        for stmt in block.stmts[:-1]:
            self._transfer(env, stmt)
        last = block.stmts[-1] if block.stmts else None
        outs: "list[tuple[int, Env]]" = []
        if isinstance(last, (ast.If, ast.While)) and len(block.succs) >= 2:
            self._transfer(env, last)
            # build_cfg links the true/body edge first, the false/after
            # edge second — the refinement below relies on that order.
            true_env = self._refine(env.copy(), last.test, True)
            false_env = self._refine(env.copy(), last.test, False)
            if true_env is not None:
                outs.append((block.succs[0], true_env))
            if false_env is not None:
                outs.append((block.succs[1], false_env))
            for succ in block.succs[2:]:  # break edges etc.
                outs.append((succ, env.copy()))
            return outs
        if last is not None:
            self._transfer(env, last)
        if isinstance(last, ast.For) and len(block.succs) >= 1:
            body_env = env.copy()
            self._bind_for_target(body_env, last)
            self._refine_range_nonempty(body_env, last.iter)
            outs.append((block.succs[0], body_env))
            for succ in block.succs[1:]:
                outs.append((succ, env.copy()))
            return outs
        return [(succ, env.copy()) for succ in block.succs]

    # -- statement transfer ------------------------------------------------
    def _transfer(self, env: Env, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(env, stmt.value)
            for target in stmt.targets:
                self._assign(env, target, stmt.value, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self._eval(env, stmt.value)
                self._assign(env, stmt.target, stmt.value, value)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                load = ast.copy_location(
                    ast.Name(id=stmt.target.id, ctx=ast.Load()), stmt.target
                )
                combined = ast.copy_location(
                    ast.BinOp(left=load, op=stmt.op, right=stmt.value), stmt
                )
                value = self._eval(env, combined)
                env.kill(stmt.target.id)
                env.vars[stmt.target.id] = self._with_name_unit(
                    stmt.target.id, value
                )
            else:
                self._eval(env, stmt.value)
                if isinstance(stmt.target, ast.Subscript):
                    self._eval(env, stmt.target)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(env, stmt.test)
        elif isinstance(stmt, ast.For):
            self._eval(env, stmt.iter)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(env, stmt.value)
                self._check_producer_return(env, stmt.value)
            else:
                value = TOP_VALUE
            self._ret = value if self._ret is None else self._ret.join(value)
        elif isinstance(stmt, ast.Expr):
            self._eval(env, stmt.value)
        elif isinstance(stmt, ast.Assert):
            self._eval(env, stmt.test)
            refined = self._refine(env, stmt.test, True)
            if refined is not None and refined is not env:
                env.vars = refined.vars
                env.constraints = refined.constraints
                env.aliases = refined.aliases
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(env, item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    env.kill(item.optional_vars.id)
                    env.vars[item.optional_vars.id] = TOP_VALUE
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(env, stmt.exc)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.kill(target.id)
                    env.vars.pop(target.id, None)
        # FunctionDef/ClassDef/Import/...: no value effect on locals.

    def _assign(
        self, env: Env, target: ast.expr, src: ast.expr, value: AbstractValue
    ) -> None:
        if isinstance(target, ast.Name):
            env.kill(target.id)
            env.vars[target.id] = self._with_name_unit(target.id, value)
            if isinstance(src, ast.Name):
                env.aliases[target.id] = env.canonical(src.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    env.kill(elt.id)
                    env.vars[elt.id] = AbstractValue(
                        TOP_INTERVAL, unit_of_name(elt.id)
                    )
        elif isinstance(target, ast.Subscript):
            self._eval(env, target)
        # attribute targets: heap state, out of scope.

    def _with_name_unit(self, name: str, value: AbstractValue) -> AbstractValue:
        """Fall back to the naming convention when inference came up empty."""
        if value.unit in (UNIT_UNKNOWN, UNIT_SCALAR):
            named = unit_of_name(name)
            if named != UNIT_UNKNOWN:
                return replace(value, unit=named)
        return value

    def _bind_for_target(self, env: Env, stmt: ast.For) -> None:
        value = self._range_value(env, stmt.iter)
        if isinstance(stmt.target, ast.Name):
            env.kill(stmt.target.id)
            env.vars[stmt.target.id] = value
        elif isinstance(stmt.target, (ast.Tuple, ast.List)):
            for elt in stmt.target.elts:
                if isinstance(elt, ast.Name):
                    env.kill(elt.id)
                    env.vars[elt.id] = TOP_VALUE

    def _refine_range_nonempty(self, env: Env, iter_expr: ast.expr) -> None:
        """Inside ``for _ in range(e):`` the body implies ``e >= 1``."""
        if not (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Name)
            and iter_expr.func.id == "range"
            and len(iter_expr.args) == 1
        ):
            return
        stop = iter_expr.args[0]
        # A provably-empty range leaves env untouched (_apply refuses an
        # empty meet); the body is unreachable then anyway.
        self._apply(env, stop, Interval(1, _INF))

    def _range_value(self, env: Env, iter_expr: ast.expr) -> AbstractValue:
        if not (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Name)
            and iter_expr.func.id == "range"
            and iter_expr.args
        ):
            return TOP_VALUE
        args = [self._eval(env, a, quiet=True) for a in iter_expr.args]
        if len(args) == 1:
            return AbstractValue(Interval(0, args[0].interval.hi), UNIT_UNKNOWN)
        lo = args[0].interval
        hi = args[1].interval
        if len(args) == 2 or args[2].interval.positive:
            return AbstractValue(Interval(lo.lo, hi.hi), UNIT_UNKNOWN)
        low = min(lo.lo, hi.lo)
        high = max(lo.hi, hi.hi)
        return AbstractValue(Interval(low, high), UNIT_UNKNOWN)

    # -- expressions -------------------------------------------------------
    def _eval(
        self, env: Env, expr: ast.expr, quiet: bool = False
    ) -> AbstractValue:
        record = self._recording and not quiet
        value = self._eval_inner(env, expr, record)
        key = _expr_key(expr, env)
        if key is not None and key in env.constraints:
            met = value.interval.meet(env.constraints[key])
            if met is not None:
                value = replace(value, interval=met)
        return value

    def _eval_inner(
        self, env: Env, expr: ast.expr, record: bool
    ) -> AbstractValue:
        if isinstance(expr, ast.Constant):
            v = expr.value
            if isinstance(v, bool):
                return AbstractValue(point(float(v)), UNIT_SCALAR)
            if isinstance(v, (int, float)):
                return AbstractValue(point(float(v)), UNIT_SCALAR)
            return TOP_VALUE
        if isinstance(expr, ast.Name):
            if expr.id in env.vars:
                return env.vars[expr.id]
            folded = self._fold_global(expr.id)
            if folded is not None:
                return AbstractValue(point(folded), UNIT_SCALAR)
            return AbstractValue(TOP_INTERVAL, unit_of_name(expr.id))
        if isinstance(expr, ast.Attribute):
            self._eval(env, expr.value, quiet=True)
            chain = self.info.ctx.resolve_call_chain(expr)
            if chain and len(chain) == 2 and chain[0] in ("math", "numpy"):
                if chain[1] == "inf":
                    return AbstractValue(point(_INF), UNIT_SCALAR)
                if chain[1] == "pi":
                    return AbstractValue(point(math.pi), UNIT_SCALAR)
            return AbstractValue(TOP_INTERVAL, unit_of_name(expr.attr))
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(env, expr, record)
        if isinstance(expr, ast.UnaryOp):
            inner = self._eval(env, expr.operand, quiet=not record)
            if isinstance(expr.op, ast.USub):
                return AbstractValue(inner.interval.neg(), inner.unit)
            if isinstance(expr.op, ast.UAdd):
                return inner
            if isinstance(expr.op, ast.Not):
                return AbstractValue(Interval(0, 1), UNIT_SCALAR)
            return TOP_VALUE
        if isinstance(expr, ast.BoolOp):
            parts = [self._eval(env, v, quiet=not record) for v in expr.values]
            out = parts[0]
            for part in parts[1:]:
                out = out.join(part)
            # `x or 0.0` / `x and y` can also yield a falsy left operand.
            return out
        if isinstance(expr, ast.Compare):
            left = self._eval(env, expr.left, quiet=not record)
            prev = left
            prev_node: ast.expr = expr.left
            for op, comparator in zip(expr.ops, expr.comparators):
                cur = self._eval(env, comparator, quiet=not record)
                if record and isinstance(
                    op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
                ) and units_clash(prev.unit, cur.unit):
                    self.result.clashes.append(
                        UnitClash(
                            node=expr,
                            kind="compare",
                            left=prev.unit,
                            right=cur.unit,
                            text=_text(expr),
                        )
                    )
                prev, prev_node = cur, comparator
            return AbstractValue(Interval(0, 1), UNIT_SCALAR)
        if isinstance(expr, ast.IfExp):
            self._eval(env, expr.test, quiet=not record)
            true_env = self._refine(env.copy(), expr.test, True) or env
            false_env = self._refine(env.copy(), expr.test, False) or env
            body = self._eval(true_env, expr.body, quiet=not record)
            orelse = self._eval(false_env, expr.orelse, quiet=not record)
            return body.join(orelse)
        if isinstance(expr, ast.Call):
            return self._eval_call(env, expr, record)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(env, expr, record)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self._eval(env, elt, quiet=not record)
            return TOP_VALUE
        if isinstance(expr, ast.Dict):
            for v in expr.values:
                if v is not None:
                    self._eval(env, v, quiet=not record)
            return TOP_VALUE
        if isinstance(expr, ast.Starred):
            return self._eval(env, expr.value, quiet=not record)
        if isinstance(expr, (ast.JoinedStr, ast.FormattedValue)):
            return TOP_VALUE
        # comprehensions, lambdas, await, yield...: unmodeled => ⊤.
        return TOP_VALUE

    def _eval_binop(
        self, env: Env, expr: ast.BinOp, record: bool
    ) -> AbstractValue:
        left = self._eval(env, expr.left, quiet=not record)
        right = self._eval(env, expr.right, quiet=not record)
        li, ri = left.interval, right.interval
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            if record and units_clash(left.unit, right.unit):
                self.result.clashes.append(
                    UnitClash(
                        node=expr,
                        kind="add" if isinstance(expr.op, ast.Add) else "sub",
                        left=left.unit,
                        right=right.unit,
                        text=_text(expr),
                    )
                )
            iv = li.add(ri) if isinstance(expr.op, ast.Add) else li.sub(ri)
            return AbstractValue(iv, unit_add(left.unit, right.unit))
        if isinstance(expr.op, ast.Mult):
            return AbstractValue(li.mul(ri), unit_mul(left.unit, right.unit))
        if isinstance(expr.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            if record:
                self.result.divisions.append(
                    DivisionSite(
                        node=expr, denom=right, denom_text=_text(expr.right)
                    )
                )
            if isinstance(expr.op, ast.Div):
                iv = li.div(ri)
            elif isinstance(expr.op, ast.FloorDiv):
                iv = li.floordiv(ri)
            else:
                iv = li.mod(ri)
            unit = (
                unit_div(left.unit, right.unit)
                if not isinstance(expr.op, ast.Mod)
                else left.unit
            )
            return AbstractValue(iv, unit)
        if isinstance(expr.op, ast.Pow):
            if (
                isinstance(expr.right, ast.Constant)
                and isinstance(expr.right.value, int)
                and expr.right.value % 2 == 0
            ):
                return AbstractValue(Interval(0, _INF), UNIT_UNKNOWN)
            return TOP_VALUE
        return TOP_VALUE  # bit ops, matmul, ...

    def _eval_subscript(
        self, env: Env, expr: ast.Subscript, record: bool
    ) -> AbstractValue:
        self._eval(env, expr.value, quiet=True)
        indexes: "list[ast.expr]" = []
        sl = expr.slice
        if isinstance(sl, ast.Tuple):
            indexes = [e for e in sl.elts if not isinstance(e, ast.Slice)]
        elif isinstance(sl, ast.Slice):
            for bound in (sl.lower, sl.upper, sl.step):
                if bound is not None:
                    self._eval(env, bound, quiet=True)
        else:
            indexes = [sl]
        for index in indexes:
            value = self._eval(env, index, quiet=not record)
            if record:
                self.result.subscripts.append(
                    SubscriptSite(
                        node=expr,
                        index=value,
                        index_text=_text(index),
                        literal_negative=_is_literal_index(index),
                        sub_nonneg_pair=self._sub_nonneg_pair(env, index),
                    )
                )
        return TOP_VALUE

    def _sub_nonneg_pair(self, env: Env, index: ast.expr) -> bool:
        if not (isinstance(index, ast.BinOp) and isinstance(index.op, ast.Sub)):
            return False
        left = self._eval(env, index.left, quiet=True)
        right = self._eval(env, index.right, quiet=True)
        return (
            left.interval.lo >= 0
            and right.interval.lo >= 0
            and not right.interval.is_top
            and not (left.interval.is_top and right.interval.is_top)
        )

    def _eval_call(
        self, env: Env, expr: ast.Call, record: bool
    ) -> AbstractValue:
        args = [
            self._eval(env, a, quiet=not record)
            for a in expr.args
            if not isinstance(a, ast.Starred)
        ]
        kwargs = {
            kw.arg: self._eval(env, kw.value, quiet=not record)
            for kw in expr.keywords
            if kw.arg is not None
        }
        chain = self.info.ctx.resolve_call_chain(expr.func)
        leaf = chain[-1] if chain else None
        if leaf in ("min", "max", "np_min", "np_max", "minimum", "maximum"):
            return self._eval_minmax(expr, args, leaf, record)
        if leaf == "abs" and args:
            return AbstractValue(args[0].interval.abs(), args[0].unit)
        if leaf == "len":
            return AbstractValue(Interval(0, _INF), UNIT_UNKNOWN)
        if leaf in ("float", "int") and len(args) == 1:
            iv = args[0].interval
            if leaf == "int":
                iv = Interval(_safe(iv.lo - 1, -_INF), _safe(iv.hi + 1, _INF))
            return AbstractValue(iv, args[0].unit)
        if leaf == "round" and args:
            iv = args[0].interval
            return AbstractValue(
                Interval(_safe(iv.lo - 1, -_INF), _safe(iv.hi + 1, _INF)),
                args[0].unit,
            )
        if leaf == "clip" and args:
            return self._eval_clip(env, expr, args)
        if leaf == "safe_ratio" and len(args) >= 2:
            default = kwargs.get("default")
            if default is None and len(args) >= 3:
                default = args[2]
            if default is None:
                default = AbstractValue(point(0.0), UNIT_SCALAR)
            quotient = AbstractValue(
                args[0].interval.div(args[1].interval),
                unit_div(args[0].unit, args[1].unit),
            )
            return quotient.join(default)
        if leaf == "sqrt" and args:
            return AbstractValue(Interval(0, _INF), UNIT_UNKNOWN)
        ref, _ = _resolve_callee(self.model, self.info, self.func, expr.func)
        if ref is not None and ref in self.summaries:
            return self.summaries[ref]
        return TOP_VALUE

    def _eval_minmax(
        self,
        expr: ast.Call,
        args: "list[AbstractValue]",
        leaf: str,
        record: bool,
    ) -> AbstractValue:
        if not args:
            return TOP_VALUE
        is_min = leaf in ("min", "np_min", "minimum")
        out = args[0]
        for arg in args[1:]:
            iv = (
                out.interval.min_with(arg.interval)
                if is_min
                else out.interval.max_with(arg.interval)
            )
            if record and units_clash(out.unit, arg.unit):
                self.result.clashes.append(
                    UnitClash(
                        node=expr,
                        kind="minmax",
                        left=out.unit,
                        right=arg.unit,
                        text=_text(expr),
                    )
                )
            out = AbstractValue(iv, unit_join(out.unit, arg.unit))
        return out

    def _eval_clip(
        self, env: Env, expr: ast.Call, args: "list[AbstractValue]"
    ) -> AbstractValue:
        # np.clip(x, lo, hi) or x.clip(lo, hi)
        if isinstance(expr.func, ast.Attribute) and not isinstance(
            expr.func.value, ast.Name
        ):
            base = self._eval(env, expr.func.value, quiet=True)
            operands = [base] + args
        elif len(args) >= 3:
            operands = args[:3]
        elif isinstance(expr.func, ast.Attribute):
            base = self._eval(env, expr.func.value, quiet=True)
            operands = [base] + args
        else:
            return TOP_VALUE
        if len(operands) < 3:
            return TOP_VALUE
        x, lo, hi = operands[0], operands[1], operands[2]
        return AbstractValue(
            Interval(
                max(x.interval.lo, lo.interval.lo),
                min(x.interval.hi, hi.interval.hi),
            )
            if max(x.interval.lo, lo.interval.lo)
            <= min(x.interval.hi, hi.interval.hi)
            else Interval(lo.interval.lo, hi.interval.hi),
            x.unit,
        )

    def _fold_global(self, name: str) -> "float | None":
        gv = self.info.globals.get(name)
        if gv is None or not isinstance(gv.node, ast.Assign):
            return None
        return _fold_const(gv.node.value)

    # -- producer return checks (UNIT001, @satisfies mode) ------------------
    def _check_producer_return(self, env: Env, value: ast.expr) -> None:
        if not self._recording:
            return
        if not any(d.endswith(".satisfies") for d in self.func.decorators):
            return
        if not isinstance(value, ast.Call):
            return
        for kw in value.keywords:
            if kw.arg is None:
                continue
            expected = FIELD_UNITS.get(kw.arg, unit_of_name(kw.arg))
            if expected not in DIMENSIONED:
                continue
            got = self._eval(env, kw.value, quiet=True)
            if units_clash(expected, got.unit):
                self.result.clashes.append(
                    UnitClash(
                        node=kw.value,
                        kind="return-field",
                        left=expected,
                        right=got.unit,
                        text=_text(kw.value),
                        field_name=kw.arg,
                    )
                )

    # -- branch refinement --------------------------------------------------
    def _refine(self, env: Env, test: ast.expr, assume: bool) -> "Env | None":
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._refine(env, test.operand, not assume)
        if isinstance(test, ast.BoolOp):
            if (isinstance(test.op, ast.And) and assume) or (
                isinstance(test.op, ast.Or) and not assume
            ):
                out: "Env | None" = env
                for v in test.values:
                    if out is None:
                        return None
                    out = self._refine(out, v, assume)
                return out
            return env  # disjunctive refinement: give up, stay sound
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            return self._refine_compare(
                env, test.left, test.ops[0], test.comparators[0], assume
            )
        if isinstance(test, (ast.Name, ast.Attribute)):
            # numeric truthiness: `if x:` means x != 0 on the true edge.
            op: ast.cmpop = ast.NotEq() if assume else ast.Eq()
            zero = ast.copy_location(ast.Constant(value=0), test)
            return self._refine_compare(env, test, op, zero, True)
        return env

    def _refine_compare(
        self,
        env: Env,
        left: ast.expr,
        op: ast.cmpop,
        right: ast.expr,
        assume: bool,
    ) -> "Env | None":
        if not assume:
            flipped = _NEGATED.get(type(op))
            if flipped is None:
                return env
            op = flipped()
        lval = self._eval(env, left, quiet=True)
        rval = self._eval(env, right, quiet=True)
        li, ri = lval.interval, rval.interval
        if isinstance(op, (ast.Lt, ast.LtE)):
            strict = isinstance(op, ast.Lt)
            env = self._apply(env, left, Interval(-_INF, ri.hi, False, strict))
            if env is None:
                return None
            env = self._apply(env, right, Interval(li.lo, _INF, strict, False))
            if env is None:
                return None
            return self._apply_diff(env, left, right, upper=True, strict=strict)
        if isinstance(op, (ast.Gt, ast.GtE)):
            strict = isinstance(op, ast.Gt)
            env = self._apply(env, left, Interval(ri.lo, _INF, strict, False))
            if env is None:
                return None
            env = self._apply(env, right, Interval(-_INF, li.hi, False, strict))
            if env is None:
                return None
            return self._apply_diff(env, left, right, upper=False, strict=strict)
        if isinstance(op, ast.Eq):
            env = self._apply(env, left, ri)
            if env is None:
                return None
            return self._apply(env, right, li)
        if isinstance(op, ast.NotEq):
            if ri.lo == ri.hi:
                env = self._exclude(env, left, ri.lo)
            if env is not None and li.lo == li.hi:
                env = self._exclude(env, right, li.lo)
            return env
        return env

    def _apply(
        self, env: "Env | None", expr: ast.expr, bound: Interval
    ) -> "Env | None":
        if env is None:
            return None
        current = self._eval(env, expr, quiet=True)
        met = current.interval.meet(bound)
        if met is None:
            return None  # infeasible branch
        if isinstance(expr, ast.Name) and expr.id in env.vars:
            env.vars[expr.id] = replace(env.vars[expr.id], interval=met)
            return env
        key = _expr_key(expr, env)
        if key is not None:
            env.constraints[key] = met
        return env

    def _apply_diff(
        self,
        env: Env,
        left: ast.expr,
        right: ast.expr,
        upper: bool,
        strict: bool,
    ) -> Env:
        """Record ``left - right`` sign facts for the non-relational gap."""
        lk = _expr_key(left, env)
        rk = _expr_key(right, env)
        if lk is None or rk is None:
            return env
        key = f"b:sub({lk},{rk})"
        bound = (
            Interval(-_INF, 0, False, strict)
            if upper
            else Interval(0, _INF, strict, False)
        )
        existing = env.constraints.get(key)
        met = bound if existing is None else existing.meet(bound)
        if met is not None:
            env.constraints[key] = met
        return env

    def _exclude(self, env: Env, expr: ast.expr, v: float) -> "Env | None":
        current = self._eval(env, expr, quiet=True)
        iv = current.interval
        if iv.lo == v and iv.hi == v:
            return None  # x != v but x == v: infeasible
        if iv.lo == v:
            iv = Interval(iv.lo, iv.hi, True, iv.hi_open)
        elif iv.hi == v:
            iv = Interval(iv.lo, iv.hi, iv.lo_open, True)
        else:
            return env
        return self._apply(env, expr, iv)


_NEGATED = {
    ast.Lt: ast.GtE,
    ast.LtE: ast.Gt,
    ast.Gt: ast.LtE,
    ast.GtE: ast.Lt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: None,
    ast.IsNot: None,
}
_NEGATED = {k: v for k, v in _NEGATED.items() if v is not None}


def _is_literal_index(index: ast.expr) -> bool:
    if isinstance(index, ast.Constant):
        return True
    return isinstance(index, ast.UnaryOp) and isinstance(
        index.operand, ast.Constant
    )


def _fold_const(expr: ast.expr) -> "float | None":
    """Tiny constant folder for module-level model constants."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float)):
        if isinstance(expr.value, bool):
            return None
        return float(expr.value)
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        inner = _fold_const(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, ast.BinOp):
        left = _fold_const(expr.left)
        right = _fold_const(expr.right)
        if left is None or right is None:
            return None
        if isinstance(expr.op, ast.Add):
            return left + right
        if isinstance(expr.op, ast.Sub):
            return left - right
        if isinstance(expr.op, ast.Mult):
            return left * right
        if isinstance(expr.op, ast.Div) and right != 0:
            return left / right
        if isinstance(expr.op, ast.Pow):
            try:
                return float(left**right)
            except OverflowError:
                return None
    if isinstance(expr, ast.Call):
        # np.int64(2) ** 62 style wrappers: fold the single argument.
        if len(expr.args) == 1 and not expr.keywords:
            return _fold_const(expr.args[0])
    return None


# ---------------------------------------------------------------------------
# Whole-scope driver
# ---------------------------------------------------------------------------

class ValueAnalysis:
    """Interval/unit results for every function in the value scope."""

    def __init__(
        self,
        model: ProgramModel,
        graph: CallGraph,
        *,
        scope: "tuple[tuple[str, ...], ...]" = VALUE_SCOPE,
        rounds: int = SUMMARY_ROUNDS,
    ) -> None:
        self.model = model
        self.graph = graph
        self.scope = scope
        self.summaries: "dict[str, AbstractValue]" = {}
        self.results: "dict[str, FunctionResult]" = {}
        scoped = [
            (model.modules[func.module], func)
            for func in model.functions()
            if _module_has_segments(func.module, scope)
        ]
        for round_no in range(rounds):
            record = round_no == rounds - 1
            for info, func in scoped:
                result = _Interp(model, info, func, self.summaries).run(record)
                self.summaries[func.ref] = result.returns
                if record:
                    self.results[func.ref] = result

    def iter_results(self) -> "list[FunctionResult]":
        return [self.results[ref] for ref in sorted(self.results)]


# ---------------------------------------------------------------------------
# Cross-implementation constant roles (DRIFT001)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantSite:
    """Where one implementation declares a model constant.

    ``kind`` is ``"global"`` (a module-level named binding, folded with
    the tiny constant folder so ``1.0 - 1e-9`` works) or
    ``"clamp-floor"`` (the literal floor inside a ``max(...)`` clamp
    whose target or arguments mention *name*).
    """

    impl: str
    module: "tuple[str, ...]"
    kind: str
    name: str


@dataclass(frozen=True)
class ConstantRole:
    role: str
    description: str
    sites: "tuple[ConstantSite, ...]"


@dataclass(frozen=True)
class RoleReading:
    role: ConstantRole
    site: ConstantSite
    info: ModuleInfo
    lineno: int
    values: "tuple[float, ...]"  # empty => declared site missing


#: The model constants that must stay in lock-step across the sibling
#: implementations.  The scalar engine and fast path share
#: ``sim.stats`` by construction (both produce counters that the stats
#: layer folds), and the batch kernel reuses the same stats reduction —
#: so the places where the Eq. 9-11 constants are *declared* are
#: ``sim.stats`` and the tier-0 surrogate's independent re-derivation.
MODEL_CONSTANT_ROLES: "tuple[ConstantRole, ...]" = (
    ConstantRole(
        role="overlap-cap",
        description="upper clamp keeping overlap_ratio_cm strictly below 1",
        sites=(
            ConstantSite("sim.stats", ("sim", "stats"), "global", "_MAX_OVERLAP"),
            ConstantSite(
                "analysis.surrogate",
                ("analysis", "surrogate"),
                "global",
                "_MAX_OVERLAP",
            ),
        ),
    ),
    ConstantRole(
        role="cpi-exe-floor",
        description="denominator floor under cpi_exe in the LPMR ratios",
        sites=(
            ConstantSite("sim.stats", ("sim", "stats"), "clamp-floor", "cpi_exe"),
            ConstantSite(
                "analysis.surrogate",
                ("analysis", "surrogate"),
                "clamp-floor",
                "cpi_exe",
            ),
        ),
    ),
)


def extract_model_constants(
    model: ProgramModel,
    roles: "tuple[ConstantRole, ...]" = MODEL_CONSTANT_ROLES,
) -> "list[RoleReading]":
    """Read every declared constant site present in *model*.

    One reading per (role, site): a site spec can match several modules
    of a package (``analysis.surrogate`` matches the ``__init__`` and
    ``predictor``), so values are merged across matching modules and the
    site counts as *missing* only when no matching module declares the
    constant.  A site whose spec matches no analyzed module at all is
    skipped entirely (partial fixture trees).
    """
    readings: "list[RoleReading]" = []
    for role in roles:
        for site in role.sites:
            matched = [
                model.modules[mod_name]
                for mod_name in sorted(model.modules)
                if _module_has_segments(mod_name, (site.module,))
            ]
            if not matched:
                continue
            found: "list[tuple[ModuleInfo, int, tuple[float, ...]]]" = []
            for info in matched:
                values, lineno = _read_site(info, site)
                if values:
                    found.append((info, lineno, values))
            if found:
                merged = tuple(v for _, _, vs in found for v in vs)
                readings.append(
                    RoleReading(role, site, found[0][0], found[0][1], merged)
                )
            else:
                readings.append(RoleReading(role, site, matched[0], 1, ()))
    return readings


def _read_site(
    info: ModuleInfo, site: ConstantSite
) -> "tuple[tuple[float, ...], int]":
    if site.kind == "global":
        gv = info.globals.get(site.name)
        if gv is not None and isinstance(gv.node, ast.Assign):
            value = _fold_const(gv.node.value)
            if value is not None:
                return (value,), gv.lineno
        return (), 1
    # clamp-floor: literal args of max(...) calls tied to the name.
    values: "list[float]" = []
    lineno = 1
    for node in walk(info.ctx.tree):
        if not (isinstance(node, ast.Call) and _is_max_call(info, node)):
            continue
        if not _mentions(info, node, site.name):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(
                arg.value, (int, float)
            ) and not isinstance(arg.value, bool):
                if not values:
                    lineno = node.lineno
                values.append(float(arg.value))
    return tuple(values), lineno


def _is_max_call(info: ModuleInfo, node: ast.Call) -> bool:
    chain = info.ctx.resolve_call_chain(node.func)
    return bool(chain) and chain[-1] in ("max", "np_max", "maximum")


def _mentions(info: ModuleInfo, call: ast.Call, name: str) -> bool:
    """The clamp floors *name* itself.

    True when an argument is exactly the named symbol (a bare ``name`` or
    an attribute ending in ``.name``), or the clamp's value is assigned
    to / passed as a keyword named *name*.  Derived expressions like
    ``max(self.cpi - self.cpi_exe, 0.0)`` deliberately do not match —
    they floor a different quantity.
    """
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id == name:
            return True
        if isinstance(arg, ast.Attribute) and arg.attr == name:
            return True
    node: ast.AST = call
    while True:
        up = info.ctx.parent(node)
        if up is None:
            return False
        if isinstance(up, ast.Assign):
            return any(
                (isinstance(t, ast.Name) and t.id == name)
                or (isinstance(t, ast.Attribute) and t.attr == name)
                for t in up.targets
            )
        if isinstance(up, ast.keyword):
            return up.arg == name
        if isinstance(up, ast.stmt):
            return False
        node = up
