"""Engine throughput A/B benchmarks: fast vs reference, batch vs scalar.

The simulator keeps three implementations of its issue loop — the
specialized fast path, the obviously-correct reference
(:mod:`repro.sim.engine`) and the vectorized batch kernel
(:mod:`repro.sim.batch`).  This module measures them on the same trace
and reports the machine-*independent* quantities CI can gate on: the
fast/reference speedup ratio and the batch/scalar design-space-sweep
speedup ratio.  Absolute instructions-per-second numbers vary wildly
across machines; the ratio of two loops timed back-to-back in the same
process is stable to within a few percent.

``python -m repro bench run [--kind batch]`` produces a JSON record;
``python -m repro bench compare`` re-measures the current tree and fails
when the speedup ratio regressed more than a tolerance below a recorded
baseline (``benchmarks/baseline_engine_perf.json`` /
``baseline_batch_perf.json``) or, for the batch gate, below an absolute
``--min-speedup`` floor.  The batch record also carries a few-lane
*walk-step* row (one Fig. 3 step's 4 lanes per SPEC profile), gated by
the fixed ``WALK_STEP_FLOOR``.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = [
    "measure_engine_throughput",
    "measure_batch_throughput",
    "measure_surrogate_throughput",
    "measure_walk_step",
    "compare_benchmarks",
    "format_bench_record",
]

#: Access-record fields whose bit-identity every throughput record verifies.
_IDENTITY_FIELDS = (
    "l1_hit_start", "l1_hit_end", "l1_miss_start", "l1_miss_end",
    "l2_hit_start", "l2_hit_end", "l2_miss_start", "l2_miss_end",
    "mem_start", "mem_end",
)


def measure_engine_throughput(
    benchmark: str = "403.gcc",
    *,
    accesses: int = 10_000,
    rounds: int = 3,
    trace_seed: int = 1,
    sim_seed: int = 0,
) -> dict:
    """Time the fast and reference engines on one workload; best-of-*rounds*.

    Also verifies the two engines produce identical access records on this
    workload — a throughput number for a wrong fast path is meaningless —
    and reports the outcome in the record's ``identical`` field.
    """
    import numpy as np

    from repro.sim import DEFAULT_MACHINE, HierarchySimulator
    from repro.sim.engine import ENGINE_VERSION
    from repro.workloads.spec import get_benchmark

    trace = get_benchmark(benchmark).trace(accesses, seed=trace_seed)
    times: "dict[str, float]" = {}
    results: "dict[str, object]" = {}
    for engine in ("fast", "reference"):
        best = math.inf
        for _ in range(rounds):
            sim = HierarchySimulator(DEFAULT_MACHINE, seed=sim_seed, engine=engine)
            t0 = time.perf_counter()
            res = sim.run(trace)
            best = min(best, time.perf_counter() - t0)
        times[engine] = best
        results[engine] = res
    fast_acc, ref_acc = results["fast"].accesses, results["reference"].accesses
    identical = all(
        np.array_equal(getattr(fast_acc, name), getattr(ref_acc, name))
        for name in _IDENTITY_FIELDS
    )
    n_instr = trace.n_instructions
    return {
        "kind": "engine_throughput",
        "benchmark": benchmark,
        "accesses": accesses,
        "instructions": n_instr,
        "rounds": rounds,
        "engine_version": ENGINE_VERSION,
        "fast_instr_per_s": n_instr / times["fast"],
        "reference_instr_per_s": n_instr / times["reference"],
        "speedup": times["reference"] / times["fast"],
        "identical": identical,
    }


#: The few-lane rows' shape: the ``fig3-walk`` benchmark's SPEC profiles,
#: trace length and trace seed, and the lanes of one of its steps.
WALK_PROFILES = ("410.bwaves", "429.mcf", "403.gcc")
WALK_ACCESSES = 700
WALK_TRACE_SEED = 7
WALK_STEP_LANES = 4
#: The walk-step row's floor on scalar/batch time: a few-lane batch call
#: may cost at most 10% more than the scalar fast-path runs it replaces.
WALK_STEP_FLOOR = 1 / 1.1


def _walk_step_configs() -> list:
    """One Fig. 3 step's batch: the minimum design point and its first
    single-knob upgrades, ``WALK_STEP_LANES`` configs in all."""
    from repro.reconfig.space import L1_KNOBS, L2_KNOBS, DesignSpace

    space = DesignSpace()
    point = space.minimum_point()
    upgrades = space.upgrade_candidates(point, L1_KNOBS + L2_KNOBS)
    points = [point] + [p for _, p in upgrades[: WALK_STEP_LANES - 1]]
    return [space.to_machine(p) for p in points]


def measure_walk_step(*, rounds: int = 5, sim_seed: int = 0) -> dict:
    """Time one few-lane batch call against N scalar fast-path runs.

    The shape of a Fig. 3 walk step: ``WALK_STEP_LANES`` configs (the
    minimum design point plus single-knob upgrades) on each walk profile
    at ``WALK_ACCESSES`` accesses.  Each side is construct + warm + run,
    summed over the profiles; the sides alternate within a round and each
    keeps its best of *rounds*.  ``speedup`` is scalar time over batch
    time, so 1.0 means the batch call costs exactly what N scalar runs
    cost.
    """
    import numpy as np

    from repro.sim import HierarchySimulator
    from repro.sim.batch import BatchHierarchySimulator
    from repro.workloads.spec import get_benchmark

    configs = _walk_step_configs()
    traces = [get_benchmark(p).trace(WALK_ACCESSES, seed=WALK_TRACE_SEED)
              for p in WALK_PROFILES]

    def scalar() -> list:
        out = []
        for trace in traces:
            for config in configs:
                sim = HierarchySimulator(config, seed=sim_seed, engine="fast")
                sim.warm_caches(trace)
                out.append(sim.run(trace))
        return out

    def batch() -> list:
        out = []
        for trace in traces:
            sim = BatchHierarchySimulator(configs, seed=sim_seed)
            sim.warm_caches(trace)
            out.extend(sim.run(trace))
        return out

    t_scalar = t_batch = math.inf
    scalar_results = batch_results = []
    for _ in range(rounds):
        for side in ("scalar", "batch"):
            t0 = time.perf_counter()
            results = scalar() if side == "scalar" else batch()
            elapsed = time.perf_counter() - t0
            if side == "scalar" and elapsed < t_scalar:
                t_scalar, scalar_results = elapsed, results
            elif side == "batch" and elapsed < t_batch:
                t_batch, batch_results = elapsed, results
    identical = all(
        np.array_equal(getattr(res_s.accesses, name),
                       getattr(res_b.accesses, name))
        for res_s, res_b in zip(scalar_results, batch_results)
        for name in _IDENTITY_FIELDS
    )
    return {
        "profiles": list(WALK_PROFILES),
        "lanes": len(configs),
        "accesses": WALK_ACCESSES,
        "rounds": rounds,
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "speedup": t_scalar / t_batch,
        "identical": identical,
    }


def measure_batch_throughput(
    *,
    n_configs: int = 64,
    accesses: int = 10_000,
    rounds: int = 3,
    trace_seed: int = 7,
    sim_seed: int = 0,
) -> dict:
    """Time a design-space sweep: batch kernel versus N scalar fast paths.

    The workload is the synthetic ``lpm-batch-gate`` trace — a 12 KB
    working set with 8 compute ops per access, the compute-heavy
    high-locality regime where the config axis dominates runtime — swept
    over a Table I knob slice (issue width x IW size x ROB size,
    ``n_configs`` points).  Scalar cost is the sum over configs of
    construct + warm + run on the fast engine; batch cost is one
    construct + warm + run of the whole slice.  Each side keeps its best
    of *rounds*.  Every lane's access record is verified bit-identical
    between the two paths (``identical`` field): a speedup for a wrong
    kernel is meaningless.

    The record also carries :func:`measure_walk_step`'s few-lane row under
    ``"walk_step"``, at its own fixed shape (4 lanes x 700 accesses on the
    three walk profiles, best of ``max(rounds, 5)``).
    """
    import numpy as np

    from repro.sim import DEFAULT_MACHINE, HierarchySimulator
    from repro.sim.batch import BatchHierarchySimulator
    from repro.sim.engine import ENGINE_VERSION
    from repro.workloads.generators import working_set_addresses
    from repro.workloads.trace import Trace

    addrs = working_set_addresses(accesses, footprint_bytes=12 * 1024,
                                  seed=trace_seed)
    trace = Trace.from_memory_addresses(
        addrs, compute_per_access=8, load_fraction=0.7,
        name="lpm-batch-gate", seed=trace_seed,
    )
    configs = [
        DEFAULT_MACHINE.with_knobs(issue_width=iw, iw_size=w, rob_size=rob,
                                   name=f"c{iw}-{w}-{rob}")
        for iw in (2, 4, 6, 8)
        for w in (32, 64, 96, 128)
        for rob in (48, 96, 128, 192)
    ][:n_configs]

    t_scalar = math.inf
    scalar_results = []
    for _ in range(rounds):
        results = []
        t0 = time.perf_counter()
        for config in configs:
            sim = HierarchySimulator(config, seed=sim_seed, engine="fast")
            sim.warm_caches(trace)
            results.append(sim.run(trace))
        elapsed = time.perf_counter() - t0
        if elapsed < t_scalar:
            t_scalar = elapsed
            scalar_results = results

    t_batch = math.inf
    batch_results = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        batch = BatchHierarchySimulator(configs, seed=sim_seed)
        batch.warm_caches(trace)
        results = batch.run(trace)
        elapsed = time.perf_counter() - t0
        if elapsed < t_batch:
            t_batch = elapsed
            batch_results = results

    identical = all(
        np.array_equal(getattr(res_s.accesses, name),
                       getattr(res_b.accesses, name))
        for res_s, res_b in zip(scalar_results, batch_results)
        for name in _IDENTITY_FIELDS
    )
    n_instr = trace.n_instructions
    record = {
        "kind": "batch_throughput",
        "benchmark": trace.name,
        "accesses": accesses,
        "instructions": n_instr,
        "n_configs": len(configs),
        "rounds": rounds,
        "engine_version": ENGINE_VERSION,
        "scalar_instr_per_s": n_instr * len(configs) / t_scalar,
        "batch_instr_per_s": n_instr * len(configs) / t_batch,
        "speedup": t_scalar / t_batch,
        "identical": identical,
    }
    step = measure_walk_step(rounds=max(rounds, 5), sim_seed=sim_seed)
    record["walk_step"] = step
    record["identical"] = identical and step["identical"]
    return record


def measure_surrogate_throughput(
    *,
    n_configs: int = 64,
    accesses: int = 10_000,
    rounds: int = 3,
    trace_seed: int = 7,
    sim_seed: int = 0,
    top_k: int = 8,
    margin: float = 0.05,
) -> dict:
    """Time a design-space sweep: multi-fidelity versus engine-only.

    The workload is the synthetic ``lpm-batch-gate`` trace swept over the
    same Table I knob slice as :func:`measure_batch_throughput`, so the
    two gates bracket the same design-space walk: ``batch`` measures how
    fast the engine evaluates every point, ``surrogate`` measures how
    few points the tier-0 model lets the engine evaluate at all.

    Reported quantities CI can gate on:

    * ``speedup`` — wall-clock engine-only sweep / multi-fidelity sweep.
    * ``engine_sim_reduction`` — configurations per engine escalation.
    * ``frontier_agreement`` — the escalated frontier attains the
      engine-only optimum (same minimum CPI, bit-equal).

    ``identical`` folds frontier agreement and the 20x reduction floor
    so :func:`compare_benchmarks` gates on them unchanged: a fast prune
    that drops the optimum (or stops pruning) is meaningless.
    """
    from repro.analysis.sweep import sweep_configs
    from repro.sim import DEFAULT_MACHINE
    from repro.sim.engine import ENGINE_VERSION
    from repro.workloads.generators import working_set_addresses
    from repro.workloads.locality import profile_trace
    from repro.workloads.trace import Trace

    addrs = working_set_addresses(accesses, footprint_bytes=12 * 1024,
                                  seed=trace_seed)
    trace = Trace.from_memory_addresses(
        addrs, compute_per_access=8, load_fraction=0.7,
        name="lpm-batch-gate", seed=trace_seed,
    )
    configs = [
        DEFAULT_MACHINE.with_knobs(issue_width=iw, iw_size=w, rob_size=rob,
                                   name=f"c{iw}-{w}-{rob}")
        for iw in (2, 4, 6, 8)
        for w in (32, 64, 96, 128)
        for rob in (48, 96, 128, 192)
    ][:n_configs]

    t_engine = math.inf
    engine_result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = sweep_configs(configs, trace, seed=sim_seed, engine="auto")
        elapsed = time.perf_counter() - t0
        if elapsed < t_engine:
            t_engine = elapsed
            engine_result = result

    t_multi = math.inf
    multi_result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = sweep_configs(configs, trace, seed=sim_seed, engine="auto",
                               fidelity="multi", top_k=top_k, margin=margin)
        elapsed = time.perf_counter() - t0
        if elapsed < t_multi:
            t_multi = elapsed
            multi_result = result

    # Pure tier-0 ranking throughput: profile once, predict the slice.
    from repro.analysis.surrogate import predict_many

    profile = profile_trace(trace, line_bytes=configs[0].l1.line_bytes)
    t_predict = math.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        predict_many(profile, configs)
        t_predict = min(t_predict, time.perf_counter() - t0)

    engine_best = min(s.cpi for s in engine_result.stats)
    escalated = [
        s for s, src in zip(multi_result.stats, multi_result.sources)
        if src != "predicted"
    ]
    frontier_agreement = bool(
        escalated and min(s.cpi for s in escalated) == engine_best
    )
    reduction = len(configs) / max(len(escalated), 1)
    n_instr = trace.n_instructions
    return {
        "kind": "surrogate_throughput",
        "benchmark": trace.name,
        "accesses": accesses,
        "instructions": n_instr,
        "n_configs": len(configs),
        "rounds": rounds,
        "top_k": top_k,
        "margin": margin,
        "engine_version": ENGINE_VERSION,
        "engine_configs_per_s": len(configs) / t_engine,
        "multi_configs_per_s": len(configs) / t_multi,
        "surrogate_configs_per_s": len(configs) / t_predict,
        "n_escalated": len(escalated),
        "engine_sim_reduction": reduction,
        "frontier_agreement": frontier_agreement,
        "speedup": t_engine / t_multi,
        "identical": frontier_agreement and reduction >= 20.0,
    }


def compare_benchmarks(
    current: dict, baseline: dict, *, tolerance: float = 0.2,
    min_speedup: float = 0.0,
) -> "tuple[bool, list[str]]":
    """Gate *current* against *baseline* on the recorded speedup ratio.

    Returns ``(ok, report_lines)``.  The gate trips when the current
    speedup falls more than ``tolerance`` (fractional) below the
    baseline's, below the absolute ``min_speedup`` floor, or when the
    optimized path stopped being bit-identical.  A batch record also
    trips it when its few-lane ``walk_step`` row is missing or its
    scalar/batch ratio is below ``WALK_STEP_FLOOR``.  Absolute throughput
    is reported for context but never gated on.
    """
    floor = max(baseline["speedup"] * (1.0 - tolerance), min_speedup)
    same_kind = current.get("kind") == baseline.get("kind")
    ok = same_kind and current["speedup"] >= floor and current.get("identical", True)
    lines = [
        f"baseline speedup: {baseline['speedup']:.3f}x "
        f"(engine v{baseline.get('engine_version', '?')}, "
        f"{baseline['accesses']} accesses)",
        f"current speedup:  {current['speedup']:.3f}x "
        f"(engine v{current.get('engine_version', '?')}, "
        f"{current['accesses']} accesses)",
        f"gate floor:       {floor:.3f}x (tolerance {tolerance:.0%}"
        + (f", absolute minimum {min_speedup:.1f}x)" if min_speedup > 0 else ")"),
        f"bit-identical:    {current.get('identical', True)}",
    ]
    if current.get("kind") == "batch_throughput":
        step = current.get("walk_step")
        walk_ok = step is not None and step["speedup"] >= WALK_STEP_FLOOR
        ok = ok and walk_ok
        lines.append(
            f"walk-step floor:  {WALK_STEP_FLOOR:.3f}x, current "
            + (f"{step['speedup']:.3f}x" if step is not None else "missing")
        )
    if not same_kind:
        lines.append(
            f"FAIL: record kind {current.get('kind')!r} does not match "
            f"baseline kind {baseline.get('kind')!r}"
        )
    else:
        lines.append("PASS" if ok
                     else "FAIL: speedup regressed below the gate")
    return ok, lines


def format_bench_record(record: dict) -> str:
    """Human-oriented rendering of one throughput record."""
    if record.get("kind") == "surrogate_throughput":
        return "\n".join([
            f"workload:   {record['benchmark']} ({record['accesses']} accesses, "
            f"{record['instructions']} instructions, best of {record['rounds']})",
            f"slice:      {record['n_configs']} configurations "
            f"(top_k={record['top_k']}, margin={record['margin']})",
            f"engine:     {record['engine_configs_per_s']:,.1f} configs/s "
            f"(every point simulated)",
            f"multi:      {record['multi_configs_per_s']:,.1f} configs/s "
            f"({record['n_escalated']} escalated, "
            f"{record['engine_sim_reduction']:.1f}x fewer engine sims)",
            f"tier-0:     {record['surrogate_configs_per_s']:,.0f} configs/s "
            f"(pure prediction)",
            f"speedup:    {record['speedup']:.3f}x "
            f"(engine v{record['engine_version']})",
            f"frontier:   agreement={record['frontier_agreement']}",
            f"identical:  {record['identical']}",
        ])
    if record.get("kind") == "batch_throughput":
        lines = [
            f"workload:   {record['benchmark']} ({record['accesses']} accesses, "
            f"{record['instructions']} instructions, best of {record['rounds']})",
            f"slice:      {record['n_configs']} configurations "
            f"(Table I knob cross-product)",
            f"scalar:     {record['scalar_instr_per_s']:,.0f} lane-instr/s",
            f"batch:      {record['batch_instr_per_s']:,.0f} lane-instr/s",
            f"speedup:    {record['speedup']:.3f}x "
            f"(engine v{record['engine_version']})",
        ]
        step = record.get("walk_step")
        if step is not None:
            lines.append(
                f"walk step:  {step['speedup']:.3f}x ({step['lanes']} lanes x "
                f"{step['accesses']} accesses on {', '.join(step['profiles'])}; "
                f"scalar {1e3 * step['scalar_s']:.1f} ms, "
                f"batch {1e3 * step['batch_s']:.1f} ms)"
            )
        lines.append(f"identical:  {record['identical']}")
        return "\n".join(lines)
    return "\n".join([
        f"benchmark:  {record['benchmark']} ({record['accesses']} accesses, "
        f"{record['instructions']} instructions, best of {record['rounds']})",
        f"fast:       {record['fast_instr_per_s']:,.0f} instr/s",
        f"reference:  {record['reference_instr_per_s']:,.0f} instr/s",
        f"speedup:    {record['speedup']:.3f}x (engine v{record['engine_version']})",
        f"identical:  {record['identical']}",
    ])
