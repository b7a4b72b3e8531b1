"""The value-analysis tier: interval domain, unit lattice, VAL/UNIT/DRIFT.

Three layers of coverage:

* algebraic unit tests for the interval domain (lattice laws, widening
  that preserves open endpoints, arithmetic edge cases) and the unit
  lattice tables;
* fixture-driven rule tests over ``tests/lint/fixtures/value`` — one
  seeded true-positive package and one clean twin per rule, including
  the PR-8 hetero-ROB gather shape and the drifted overlap cap;
* a hypothesis soundness test: for randomly generated straight-line /
  branch / loop programs, the abstract return interval always contains
  the concretely executed return value.
"""

import ast
import math
import textwrap
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.engine import ModuleContext
from repro.lint.program import run_program_lint
from repro.lint.program.baseline import Baseline, fingerprint_violation
from repro.lint.program.symbols import ModuleInfo, ProgramModel
from repro.lint.program.values import (
    UNIT_BYTES,
    UNIT_CYCLES,
    UNIT_RATIO,
    UNIT_SCALAR,
    UNIT_UNKNOWN,
    AbstractValue,
    Interval,
    ValueAnalysis,
    point,
    unit_add,
    unit_div,
    unit_join,
    unit_mul,
    unit_of_name,
    units_clash,
)

FIXTURES = Path(__file__).parent / "fixtures" / "value"
VALUE_RULES = ["VAL001", "VAL002", "UNIT001", "DRIFT001"]


def lint(package: str, rules=VALUE_RULES, baseline=None):
    return run_program_lint([FIXTURES / package], rules=rules, baseline=baseline)


# ---------------------------------------------------------------------------
# Interval domain
# ---------------------------------------------------------------------------

class TestIntervalDomain:
    def test_point_and_contains(self):
        iv = point(3.0)
        assert iv.contains(3.0) and not iv.contains(3.5)
        assert not iv.contains_zero()

    def test_open_endpoints_exclude_boundary(self):
        iv = Interval(0.0, math.inf, lo_open=True)
        assert not iv.contains(0.0)
        assert iv.contains(1e-300)
        assert not iv.contains_zero()
        assert iv.positive

    def test_join_is_hull(self):
        a, b = Interval(0, 1), Interval(3, 5)
        assert a.join(b) == Interval(0, 5)

    def test_meet_empty_is_none(self):
        assert Interval(0, 1).meet(Interval(2, 3)) is None
        # Touching at an open endpoint is still empty.
        assert Interval(0, 1, hi_open=True).meet(point(1.0)) is None

    def test_widen_unstable_bounds_to_infinity(self):
        old, new = Interval(0, 1), Interval(0, 2)
        widened = old.widen(new)
        assert widened.lo == 0 and widened.hi == math.inf

    def test_widen_preserves_openness_on_stable_bound(self):
        # The guard `x > 0` must survive widening at a loop head: the
        # low bound is stable, so its open flag must not be dropped.
        old = Interval(0, 1, lo_open=True)
        widened = old.widen(Interval(0, 5, lo_open=True))
        assert widened.lo == 0 and widened.lo_open
        assert not widened.contains_zero()

    def test_div_by_zero_straddling_interval_is_top(self):
        assert Interval(1, 2).div(Interval(-1, 1)).is_top

    def test_div_by_positive_interval(self):
        iv = Interval(2, 4).div(Interval(1, 2))
        assert iv.lo == 1 and iv.hi == 4

    def test_mul_with_infinity_and_zero(self):
        # 0 * inf must resolve to 0, not nan, for sound bounds.
        iv = point(0.0).mul(Interval(0, math.inf))
        assert iv.contains(0.0) and not iv.contains(1.0)

    def test_abs_and_minmax(self):
        assert Interval(-3, 2).abs() == Interval(0, 3)
        assert Interval(0, 10).max_with(point(4.0)) == Interval(4, 10)
        assert Interval(0, 10).min_with(point(4.0)) == Interval(0, 4)

    def test_bounds_is_json_safe(self):
        assert Interval(0, math.inf).bounds() == [0.0, "inf"]


# ---------------------------------------------------------------------------
# Unit lattice
# ---------------------------------------------------------------------------

class TestUnitLattice:
    def test_model_vocabulary(self):
        assert unit_of_name("camat1") == UNIT_CYCLES
        assert unit_of_name("hit_time1") == UNIT_CYCLES
        assert unit_of_name("mr2") == UNIT_RATIO
        assert unit_of_name("overlap_ratio_cm") == UNIT_RATIO
        assert unit_of_name("n_instructions") != UNIT_RATIO
        # A bare name outside the vocabulary carries no dimension.
        assert unit_of_name("total") == UNIT_UNKNOWN

    def test_scalar_is_polymorphic(self):
        # `cpi + 1.0` and `max(cpi, eps)` must not clash.
        assert not units_clash(UNIT_CYCLES, UNIT_SCALAR)
        assert unit_add(UNIT_CYCLES, UNIT_SCALAR) == UNIT_CYCLES

    def test_dimension_clash(self):
        assert units_clash(UNIT_CYCLES, UNIT_RATIO)
        assert unit_add(UNIT_CYCLES, UNIT_RATIO) == UNIT_UNKNOWN

    def test_ratio_scales_dimensions(self):
        assert unit_mul(UNIT_RATIO, UNIT_CYCLES) == UNIT_CYCLES
        assert unit_mul(UNIT_RATIO, UNIT_RATIO) == UNIT_RATIO
        assert unit_div(UNIT_CYCLES, UNIT_CYCLES) == UNIT_RATIO
        assert unit_div(UNIT_CYCLES, UNIT_RATIO) == UNIT_CYCLES


# ---------------------------------------------------------------------------
# Lattice fast path: joining or widening a value with itself
# ---------------------------------------------------------------------------

def _hull(a, b):
    """Interval join as the lattice defines it (the full, non-shortcut path)."""
    if a.lo != b.lo:
        lo, lo_open = min((a.lo, a.lo_open), (b.lo, b.lo_open))
    else:
        lo, lo_open = a.lo, a.lo_open and b.lo_open
    if a.hi != b.hi:
        hi, hi_open = max((a.hi, a.hi_open), (b.hi, b.hi_open))
    else:
        hi, hi_open = a.hi, a.hi_open and b.hi_open
    return Interval(lo, hi, lo_open, hi_open)


def _widened(old, new):
    """Interval widening as the lattice defines it."""
    if new.lo < old.lo:
        lo, lo_open = -math.inf, False
    else:
        lo, lo_open = old.lo, old.lo_open and (new.lo > old.lo or new.lo_open)
    if new.hi > old.hi:
        hi, hi_open = math.inf, False
    else:
        hi, hi_open = old.hi, old.hi_open and (new.hi < old.hi or new.hi_open)
    return Interval(lo, hi, lo_open, hi_open)


_ENDPOINTS = st.one_of(
    st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 1.0, math.inf]),
    st.floats(allow_nan=False),
)


@st.composite
def _intervals(draw):
    lo, hi = sorted((draw(_ENDPOINTS), draw(_ENDPOINTS)))
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


_VALUES = st.builds(
    AbstractValue,
    _intervals(),
    st.sampled_from(
        [UNIT_UNKNOWN, UNIT_SCALAR, UNIT_RATIO, UNIT_CYCLES, UNIT_BYTES]
    ),
)


class TestLatticeFastPath:
    @settings(max_examples=200, deadline=None)
    @given(x=_intervals())
    def test_interval_with_itself(self, x):
        # An equal but distinct copy takes the full path.
        twin = replace(x)
        assert x.join(x) is x and x.widen(x) is x
        assert x.join(x) == x.join(twin) == _hull(x, x)
        assert x.widen(x) == x.widen(twin) == _widened(x, x)

    @settings(max_examples=200, deadline=None)
    @given(x=_intervals(), y=_intervals())
    def test_interval_with_another(self, x, y):
        assert x.join(y) == _hull(x, y)
        assert x.widen(y) == _widened(x, y)

    @settings(max_examples=200, deadline=None)
    @given(v=_VALUES, w=_VALUES)
    def test_abstract_value_join(self, v, w):
        assert v.join(v) is v
        assert v.join(v) == v.join(replace(v))
        assert v.join(w) == AbstractValue(
            _hull(v.interval, w.interval), unit_join(v.unit, w.unit)
        )


# ---------------------------------------------------------------------------
# Rule fixtures
# ---------------------------------------------------------------------------

class TestValueRuleFixtures:
    def test_val001_flags_reachable_zero_denominator(self):
        result = lint("val001_bad")
        assert [v.rule for v in result.violations] == ["VAL001"]
        v = result.violations[0]
        assert "window" in v.message
        assert v.detail is not None
        assert v.detail["interval"] == [0.0, "inf"]

    def test_val001_clean_twin_passes(self):
        assert lint("val001_clean").violations == []

    def test_val002_flags_hetero_rob_gather(self):
        result = lint("val002_bad")
        assert [v.rule for v in result.violations] == ["VAL002"]
        v = result.violations[0]
        assert "i - rob" in v.message
        assert v.detail is not None and v.detail["gather_shape"] is True

    def test_val002_clean_twin_passes(self):
        # Guarded, clamped and literal `rows[-1]` shapes all stay quiet.
        assert lint("val002_clean").violations == []

    def test_unit001_flags_add_and_return_field(self):
        result = lint("unit001_bad")
        assert [v.rule for v in result.violations] == ["UNIT001", "UNIT001"]
        kinds = {v.detail["kind"] for v in result.violations}
        assert kinds == {"add", "return-field"}
        by_kind = {v.detail["kind"]: v for v in result.violations}
        assert by_kind["add"].detail["left_unit"] == UNIT_CYCLES
        assert by_kind["add"].detail["right_unit"] == UNIT_RATIO
        assert by_kind["return-field"].detail["field"] == "camat1"

    def test_unit001_clean_twin_passes(self):
        assert lint("unit001_clean").violations == []

    def test_drift001_flags_both_drifted_siblings(self):
        result = lint("drift_bad")
        assert [v.rule for v in result.violations] == ["DRIFT001", "DRIFT001"]
        impls = {v.detail["implementation"] for v in result.violations}
        assert impls == {"sim.stats", "analysis.surrogate"}
        for v in result.violations:
            assert v.detail["role"] == "overlap-cap"
            assert v.detail["siblings"]  # each names the disagreeing twin

    def test_drift001_clean_twin_passes(self):
        assert lint("drift_clean").violations == []

    def test_drift001_flags_missing_sibling(self):
        result = lint("drift_missing_bad")
        assert [v.rule for v in result.violations] == ["DRIFT001"]
        v = result.violations[0]
        assert v.detail["missing"] is True
        assert v.detail["implementation"] == "analysis.surrogate"

    def test_drift001_is_never_baselinable(self):
        first = lint("drift_bad")
        # The driver refuses to fingerprint DRIFT findings at all...
        assert [e for e in first.baseline_entries if e.rule == "DRIFT001"] == []
        # ...and even a hand-forged baseline entry cannot grandfather one.
        forged = Baseline()
        for v in first.violations:
            src = Path(v.path).read_text(encoding="utf-8").splitlines()
            text = src[v.line - 1] if v.line <= len(src) else ""
            fp = fingerprint_violation(v, text, 0)
            forged.entries[fp] = object()  # membership is all that matters
        again = lint("drift_bad", baseline=forged)
        assert [v.rule for v in again.violations] == ["DRIFT001", "DRIFT001"]
        assert again.baselined == []

    def test_val001_is_baselinable_with_entries(self):
        first = lint("val001_bad")
        baseline = Baseline()
        for entry in first.baseline_entries:
            baseline.entries[entry.fingerprint] = entry
        again = lint("val001_bad", baseline=baseline)
        assert again.violations == []
        assert [v.rule for v in again.baselined] == ["VAL001"]


# ---------------------------------------------------------------------------
# Guard refinement and suppression, on synthesized trees
# ---------------------------------------------------------------------------

def write_sim_module(tmp_path, source):
    sim = tmp_path / "sim"
    sim.mkdir()
    (sim / "__init__.py").write_text("", encoding="utf-8")
    (sim / "mod.py").write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


class TestRefinement:
    def test_comparison_guard_discharges_val001(self, tmp_path):
        tree = write_sim_module(tmp_path, """
            def f(n: int) -> float:
                total = max(n, 0)
                if total > 0:
                    return 1.0 / total
                return 0.0
        """)
        assert run_program_lint([tree], rules=["VAL001"]).violations == []

    def test_len_guard_discharges_val001(self, tmp_path):
        tree = write_sim_module(tmp_path, """
            def f(xs) -> float:
                if len(xs) == 0:
                    return 0.0
                return 1.0 / len(xs)
        """)
        assert run_program_lint([tree], rules=["VAL001"]).violations == []

    def test_unguarded_clamp_to_zero_still_flags(self, tmp_path):
        tree = write_sim_module(tmp_path, """
            def f(n: int) -> float:
                total = max(n, 0)
                return 1.0 / total
        """)
        result = run_program_lint([tree], rules=["VAL001"])
        assert [v.rule for v in result.violations] == ["VAL001"]

    def test_justified_noqa_suppresses_val001(self, tmp_path):
        tree = write_sim_module(tmp_path, """
            def f(n: int) -> float:
                total = max(n, 0)
                return 1.0 / total  # repro: noqa[VAL001] -- caller guarantees n >= 1
        """)
        result = run_program_lint([tree], rules=["VAL001"])
        assert result.violations == []
        assert result.suppressed_justified == 1


# ---------------------------------------------------------------------------
# Hypothesis: soundness of the abstract semantics
# ---------------------------------------------------------------------------

def analyze_source(source: str):
    """Interval summaries for a one-module program, built in memory."""
    ctx = ModuleContext("gen/sim/kernel.py", source, ast.parse(source))
    info = ModuleInfo("gen.sim.kernel", "gen/sim/kernel.py", ctx)
    model = ProgramModel(modules={"gen.sim.kernel": info})
    return ValueAnalysis(model, graph=None)


_CONSTS = st.integers(min_value=-3, max_value=3)


def _atom(vars_):
    return st.one_of(_CONSTS.map(str), st.sampled_from(sorted(vars_)))


def _expr(vars_, depth=2):
    """A small arithmetic expression over *vars_* as source text."""
    atom = _atom(vars_)
    if depth == 0:
        return atom
    sub = _expr(vars_, depth - 1)
    binop = st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    )
    call = st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
        lambda t: f"{t[0]}({t[1]}, {t[2]})"
    )
    unary = sub.map(lambda s: f"abs({s})")
    return st.one_of(atom, binop, call, unary)


_COND = st.tuples(
    st.sampled_from(["a", "b", "x"]),
    st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
    _CONSTS,
).map(lambda t: f"{t[0]} {t[1]} {t[2]}")


@st.composite
def _programs(draw):
    lines = [f"    x = {draw(_expr({'a', 'b'}))}"]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["assign", "if", "for"]))
        if kind == "assign":
            lines.append(f"    x = {draw(_expr({'a', 'b', 'x'}))}")
        elif kind == "if":
            lines.append(f"    if {draw(_COND)}:")
            lines.append(f"        x = {draw(_expr({'a', 'b', 'x'}))}")
            lines.append("    else:")
            lines.append(f"        x = {draw(_expr({'a', 'b', 'x'}))}")
        else:
            # Loop addends avoid x so concrete values stay small while
            # the abstract side still has to widen at the loop head.
            n = draw(st.integers(min_value=0, max_value=4))
            lines.append(f"    for it in range({n}):")
            lines.append(f"        x = x + {draw(_expr({'a', 'b'}))}")
    lines.append("    return x")
    return "def f(a, b):\n" + "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(
    source=_programs(),
    a=st.integers(min_value=-5, max_value=5),
    b=st.integers(min_value=-5, max_value=5),
)
def test_abstract_interval_contains_concrete_result(source, a, b):
    namespace = {}
    exec(compile(source, "<gen>", "exec"), namespace)  # noqa: S102 - test-only
    concrete = namespace["f"](a, b)
    summary = analyze_source(source).summaries["gen.sim.kernel:f"]
    assert summary.interval.contains(float(concrete)), (
        f"unsound: concrete {concrete} outside {summary.interval}\n{source}"
    )
