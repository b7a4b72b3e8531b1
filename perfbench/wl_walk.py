"""``fig3-walk``: the Fig. 3 algorithm over the six-knob design space.

``LPMAlgorithm`` (delta = 10%, deprovision allowed, ``max_steps=12``)
drives ``GreedyReconfigBackend`` from the minimum design point over
410.bwaves, 429.mcf and 403.gcc.  Steps depend on each other and each one
measures only the incumbent plus 4-5 single-knob neighbours, so the batch
kernel runs with 4-5 lanes per call and per-call engine overhead
dominates.  An engine-dispatch change that helps ``table1-sweep`` (64
lanes per call) can hurt here, and this workload shows it.

Untraced, each walk is paired with the same walk on the pinned program
(``reference``).  ``latency_p50_ms`` is the median time ratio of a set of
three walks times ``NOMINAL_S``, and ``throughput_per_s`` is walks per
second at that time.  The simulations the walks spend (the paper's "how few
points" figure) are the traced run's ``explorer.simulated_configs``.
"""

from __future__ import annotations

import sys

import layers
import reference
from common import Outcome

PROFILES = ("410.bwaves", "429.mcf", "403.gcc")
ACCESSES = {"full": 700, "small": 300}
DELTA_PERCENT = 10.0
MAX_STEPS = 12
#: Median time of one walk set on the pinned program (see ``reference``).
NOMINAL_S = 1.6
#: Median set-up time of the pinned program, for ``setup_s``.
NOMINAL_SETUP_S = 0.9
#: Per-layer metrics this workload measures (besides the ledger's own two).
PER_LAYER = (
    "workloads.trace_gen_s", "sim.engine.calls", "sim.batch.calls",
    "sim.batch.lanes_per_call", "sim.batch.perfect_s", "sim.batch.warm_s",
    "sim.batch.run_s", "sim.batch.ns_per_lane_instr", "sim.batch.fallback_configs",
    "analyzer.calls", "analyzer.measure_s", "algorithm.steps",
    "explorer.requested_configs", "explorer.dedup_hits", "explorer.self_s",
    "explorer.simulated_configs",
)


def setup(seed: int, scale: str, workdir) -> dict:
    from repro.workloads import get_benchmark

    import repro.core.algorithm  # noqa: F401  (import cost belongs to set-up)
    import repro.reconfig  # noqa: F401

    traces = [get_benchmark(name).trace(ACCESSES[scale], seed=seed) for name in PROFILES]
    return {"seed": seed, "traces": traces, "scale": scale}


def _walk(trace, seed: int, runtime=None, ledger=None, tag: str = ""):
    """One walk; returns ``(record, simulations)``."""
    from repro.core.algorithm import LPMAlgorithm
    from repro.reconfig import DesignSpace, GreedyReconfigBackend

    backend = GreedyReconfigBackend(
        DesignSpace(), trace, seed=seed, delta_percent=DELTA_PERCENT,
        runtime=runtime,
    )
    algorithm = LPMAlgorithm(DELTA_PERCENT, max_steps=MAX_STEPS)
    if ledger is not None:
        with ledger.span("algorithm.run", tag=tag):
            result = algorithm.run(backend, allow_deprovision=True)
    else:
        result = algorithm.run(backend, allow_deprovision=True)
    record = {
        "profile": trace.name,
        "status": result.status.value,
        "final": backend.describe(),
        "steps": [[s.case.value, s.config_label, repr(s.report.lpmr1)]
                  for s in result.steps],
    }
    return record, backend.log.evaluations


def parts(ctx: dict) -> int:
    return len(ctx["traces"])


def part(ctx: dict, k: int, ledger=None, tag: str = "") -> "tuple[dict, int]":
    """The walk over trace *k*: ``(record, simulations)``."""
    return _walk(ctx["traces"][k], ctx["seed"], ledger=ledger, tag=tag)


def measure(ctx: dict, seconds: float, ledger=None) -> dict:
    """Walk sets (one ``part`` per profile) for about *seconds*."""
    phase = reference.measure_units(ctx, seconds, sys.modules[__name__], ledger,
                                    min_reps=2)
    if ledger is not None:
        from repro.workloads import get_benchmark

        install(ledger)
        try:
            for name in PROFILES:
                get_benchmark(name).trace(ACCESSES[ctx["scale"]], seed=ctx["seed"])
        finally:
            ledger.restore()
    phase["sets"] = [[record for record, _ in unit] for unit in phase["results"]]
    phase["sims"] = [sum(n for _, n in unit) for unit in phase["results"]]
    phase["steps"] = sum(len(r["steps"]) for r in phase["sets"][0])
    return phase


def verify(ctx: dict, phase: dict, out: Outcome, corrupt: bool) -> None:
    """Each walk's status, final point and per-step case/LPMR1 trajectory
    equal a reference walk measured by the scalar engine.

    The reference routes every measurement through an inline
    ``EvaluationRuntime`` whose job body is the scalar simulate-and-measure
    job, so the batch kernel is not involved.
    """
    from repro.runtime import EvaluationRuntime
    from repro.runtime.evaluate import _simulate_job

    reference = [
        _walk(trace, ctx["seed"], runtime=EvaluationRuntime(job_fn=_simulate_job))[0]
        for trace in ctx["traces"]
    ]
    if corrupt:
        phase["sets"][0][0]["steps"][-1][2] += "1"
    for rep, records in enumerate(phase["sets"]):
        for record, expected in zip(records, reference):
            out.check(record == expected, f"set {rep} walk {record['profile']}")
    out.check(len(set(phase["sims"])) == 1, "simulation count differs between sets")


def end_to_end(ctx: dict, phase: dict, out: Outcome) -> None:
    paired = phase["paired"]
    set_s = paired.ratio() * NOMINAL_S
    out.put("throughput_per_s", len(PROFILES) / set_s, "1/s")
    out.put("latency_p50_ms", 1000.0 * set_s, "ms")
    out.notes.append(
        "walk: " + paired.note(f"sets of {len(PROFILES)} walks") + f"; "
        f"{phase['steps']} steps and {phase['sims'][0]} simulations per set"
    )


def install(ledger) -> None:
    layers.install_workloads(ledger)
    layers.install_sim(ledger)
    layers.install_explorer(ledger)


def per_layer(ctx: dict, phase: dict, ledger, out: Outcome) -> None:
    """Per-layer numbers per traced walk set (three walks)."""
    units = len(phase["units"].traced)
    out.put("workloads.trace_gen_s", sum(ledger.durations("workloads.trace")), "s")
    layers.put_batch_metrics(ledger, units, out)
    out.put("algorithm.steps", phase["steps"], "count")
    requested = ledger.counters["explorer.requested_configs"] / units
    out.put("explorer.requested_configs", requested, "count")
    out.put("explorer.dedup_hits", requested - phase["sims"][0], "count")
    out.put("explorer.simulated_configs", phase["sims"][0], "count")
    explorer_self = sum(
        seconds for name, seconds in ledger.self_times().items()
        if name.startswith("explorer.") or name == "algorithm.run"
    )
    out.put("explorer.self_s", explorer_self / units, "s")
