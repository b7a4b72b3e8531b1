"""Numerical-safety rules: divisions, float equality, inf/nan literals.

The analytical models divide by measured quantities (``accesses``,
``miss_count``, ``cpi_exe``, ...) that are legitimately zero for empty or
degenerate windows, so every such division must be guarded.  NUM001
recognizes the repository's sanctioned guard idioms:

* a test mentioning the denominator anywhere in the enclosing function
  (``x / n if n else 0.0``, early ``if n == 0: return``, ``assert n``);
* a validator call on the denominator in the enclosing function
  (``check_positive("apc", apc)``, ``check_at_least(...)``);
* a dataclass whose ``__post_init__`` validates the field being divided by
  (``check_positive("hit_time", self.hit_time)`` makes ``self.hit_time``
  safe in every method of that class);
* the shared :func:`repro.util.validation.safe_ratio` helper.

Only divisions by a *bare name or attribute* whose terminal name is a known
model quantity are examined — arbitrary expressions are out of scope, which
keeps the rule's false-positive rate near zero at the cost of not chasing
aliases.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import ModuleContext, Rule, Severity, Violation, register, walk

__all__ = ["UnguardedModelDivision", "FloatEqualityComparison", "FloatLiteralInfNan"]

#: Model quantities that may legitimately measure zero.  Divisions by other
#: names are not this rule's business.
MODEL_DENOMINATORS = frozenset({
    "accesses", "n", "n_accesses", "total", "count",
    "miss_count", "pure_miss_count", "misses", "pure_misses",
    "active", "active_cycles", "hit_active_cycles", "miss_active_cycles",
    "pure_miss_cycles", "total_cycles",
    "cpi", "cpi_exe", "ipc", "camat", "camat_value", "apc",
    "hit_concurrency", "miss_concurrency", "pure_miss_concurrency",
    "avg_miss_penalty", "pure_miss_penalty", "eta_combined",
    "n_instructions", "instructions",
    "grants", "admissions", "issued", "observed",
    "ceiling", "base_round_trip", "miss_rate",
})

#: Validator helpers that prove a value is non-zero afterwards.  ``require``
#: guards via its condition expression; ``check_int`` only with a positive
#: ``minimum=`` keyword (handled separately).
_POSITIVE_VALIDATORS = frozenset({
    "check_positive", "check_at_least", "check_power_of_two", "require",
})


def _check_int_proves_positive(node: ast.Call) -> bool:
    """Whether a ``check_int(name, value, minimum=k)`` call has ``k >= 1``."""
    for kw in node.keywords:
        if kw.arg == "minimum" and isinstance(kw.value, ast.Constant):
            value = kw.value.value
            return isinstance(value, int) and value >= 1
    return False


def _terminal_name(node: ast.AST) -> "str | None":
    """The rightmost identifier of a bare ``Name`` / ``Attribute`` chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _names_in(node: ast.AST) -> set[str]:
    """Every identifier (Name ids and Attribute attrs) under *node*."""
    names: set[str] = set()
    for sub in walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _guarded_names(func: ast.AST) -> set[str]:
    """Names that appear in any branch/assert test or validator call in *func*."""
    guarded: set[str] = set()
    for node in walk(func):
        if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            guarded |= _names_in(node.test)
        elif isinstance(node, ast.comprehension):
            for test in node.ifs:
                guarded |= _names_in(test)
        elif isinstance(node, ast.Call):
            callee = _terminal_name(node.func)
            if callee in _POSITIVE_VALIDATORS or (
                callee == "check_int" and _check_int_proves_positive(node)
            ):
                for arg in node.args:
                    guarded |= _names_in(arg)
    return guarded


def _post_init_validated_fields(cls: ast.ClassDef) -> set[str]:
    """Fields a dataclass's ``__post_init__`` proves positive.

    Recognizes ``check_positive("field", self.field)`` and
    ``check_at_least("field", self.field, k)`` — the string literal is
    taken as the field name, matching the repository convention.
    """
    validated: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__":
            for node in walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                callee = _terminal_name(node.func)
                proves_positive = callee in _POSITIVE_VALIDATORS or (
                    callee == "check_int" and _check_int_proves_positive(node)
                )
                if proves_positive and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and isinstance(first.value, str):
                        validated.add(first.value)
    return validated


@register
class UnguardedModelDivision(Rule):
    """NUM001: division by a model quantity with no zero guard in scope."""

    name = "NUM001"
    severity = Severity.ERROR
    description = (
        "division by a model quantity (accesses, miss_count, cpi_exe, ...) "
        "without a zero guard; use util.validation.safe_ratio or guard the "
        "denominator"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        class_fields: dict[ast.ClassDef, set[str]] = {}
        for node in walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
                continue
            denom = _terminal_name(node.right)
            if denom is None or denom not in MODEL_DENOMINATORS:
                continue
            func = ctx.enclosing_function(node)
            if func is not None and denom in _guarded_names(func):
                continue
            if isinstance(node.right, ast.Attribute) and isinstance(
                node.right.value, ast.Name
            ) and node.right.value.id in ("self", "cls"):
                cls = ctx.enclosing_class(node)
                if cls is not None:
                    if cls not in class_fields:
                        class_fields[cls] = _post_init_validated_fields(cls)
                    if denom in class_fields[cls]:
                        continue
            yield self.violation(
                ctx, node,
                f"unguarded division by model quantity {denom!r}; use "
                f"safe_ratio(num, {denom}) or guard against zero",
            )


@register
class FloatEqualityComparison(Rule):
    """NUM002: ``==`` / ``!=`` against a non-zero float literal.

    Comparing to ``0.0`` is exempt: exact zero is this codebase's sentinel
    for "no such phase" (e.g. ``avg_miss_penalty == 0.0`` means no misses)
    and is assigned, never computed, so the comparison is exact.
    """

    name = "NUM002"
    severity = Severity.ERROR
    description = (
        "float equality against a non-zero literal; use math.isclose or an "
        "explicit tolerance"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, (left, right) in zip(node.ops, zip(operands, operands[1:])):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, float)
                        and side.value != 0.0
                    ):
                        yield self.violation(
                            ctx, node,
                            f"exact float comparison against {side.value!r}; "
                            "use math.isclose or a tolerance",
                        )
                        break


@register
class FloatLiteralInfNan(Rule):
    """NUM003: ``float("inf")`` / ``float("nan")`` string round-trips."""

    name = "NUM003"
    severity = Severity.WARNING
    description = 'float("inf"/"nan") literal; use math.inf / math.nan'

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                text = node.args[0].value.strip().lstrip("+-").lower()
                if text in {"inf", "infinity", "nan"}:
                    yield self.violation(
                        ctx, node,
                        f'float("{node.args[0].value}"); use math.inf / math.nan',
                    )
