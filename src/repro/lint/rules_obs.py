"""Observability rules: timing and output discipline in instrumented code.

The observability layer (:mod:`repro.obs`) and the evaluation runtime it
instruments live or die by two conventions:

* **Durations come from the monotonic clock.**  ``time.time()`` steps
  under NTP slew and DST, so a span or phase timing taken from it can be
  negative or wildly wrong; every duration in the repo is a
  ``time.perf_counter`` difference (OBS001).
* **Diagnostics are structured, never printed.**  A stray ``print`` from
  inside the tracer, the metrics registry, or a pool worker corrupts the
  machine-readable CLI output (``--metrics json`` and golden snapshots),
  and under a fork-pool interleaves mid-line with the parent.  Anything
  user-facing goes through the reporters or a trace event (OBS002).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import ModuleContext, Rule, Severity, Violation, register, walk

__all__ = ["WallClockDuration", "DirectPrint"]

#: ``time.<x>`` calls that read the steppable wall clock.
_WALL_CLOCK = frozenset({"time", "time_ns"})


@register
class WallClockDuration(Rule):
    """OBS001: wall-clock read where a monotonic duration is required."""

    name = "OBS001"
    severity = Severity.ERROR
    description = (
        "time.time()/time_ns() in instrumented code; durations must use "
        "time.perf_counter (monotonic, never steps)"
    )
    # DET001 already bans wall-clock reads in sim/core/workloads; this rule
    # covers the observability, runtime, and service layers, where the
    # failure mode is a corrupted span/phase timing (or breaker/deadline
    # arithmetic) rather than a nondeterministic result.
    packages = ("obs", "runtime", "service")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = ctx.resolve_call_chain(node.func)
            if not chain or len(chain) < 2:
                continue
            if chain[0] == "time" and chain[-1] in _WALL_CLOCK:
                dotted = ".".join(chain)
                yield self.violation(
                    ctx, node,
                    f"{dotted}() reads the steppable wall clock; time "
                    "durations with time.perf_counter() instead",
                )


@register
class DirectPrint(Rule):
    """OBS002: bare ``print`` inside the observability/runtime layers."""

    name = "OBS002"
    severity = Severity.ERROR
    description = (
        "direct print() in repro.obs/runtime/service; route output through "
        "the reporters, a trace event, or a metrics counter"
    )
    packages = ("obs", "runtime", "service")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield self.violation(
                    ctx, node,
                    "print() from instrumented code interleaves with worker "
                    "output and corrupts structured reports; return a string "
                    "or emit a trace event",
                )
