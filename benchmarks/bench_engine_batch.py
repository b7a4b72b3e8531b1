"""Batch-kernel throughput benchmark (true timing benchmark, not an experiment).

Times a design-space sweep both ways — N scalar fast-path simulators
versus one :class:`~repro.sim.batch.BatchHierarchySimulator` stepping all
N configurations per kernel call — on the same compute-heavy synthetic
workload the CI gate uses (``lpm-batch-gate``: 12 KB working set, 8
compute ops per access).  Their ratio is the machine-independent quantity
CI gates via ``python -m repro bench compare --kind batch`` (see
``baseline_batch_perf.json``); this module tracks the same two timings
under pytest-benchmark statistics at reduced scale.

``test_lane_crossover_table`` regenerates the kernel/scalar crossover
table behind ``repro.sim.batch._MIN_VECTOR_LANES`` (docs/PERFORMANCE.md)
into ``benchmarks/output/P1_batch_lane_crossover.txt``.
"""

import itertools
import math
import random
import time

from repro.obs.bench import WALK_PROFILES, WALK_TRACE_SEED, measure_batch_throughput
from repro.sim import DEFAULT_MACHINE, HierarchySimulator
from repro.sim.batch import _MIN_VECTOR_LANES, BatchHierarchySimulator
from repro.workloads.generators import working_set_addresses
from repro.workloads.spec import get_benchmark
from repro.workloads.trace import Trace

N_ACCESSES = 4_000
N_CONFIGS = 16
#: Crossover table shape: Fig. 3 walk-sized traces, best of a few rounds.
CROSSOVER_ACCESSES = 700
CROSSOVER_ROUNDS = 5


def _gate_trace():
    addrs = working_set_addresses(N_ACCESSES, footprint_bytes=12 * 1024, seed=7)
    return Trace.from_memory_addresses(
        addrs, compute_per_access=8, load_fraction=0.7,
        name="lpm-batch-gate", seed=7,
    )


def _knob_slice():
    return [
        DEFAULT_MACHINE.with_knobs(issue_width=iw, iw_size=w, rob_size=rob,
                                   name=f"c{iw}-{w}-{rob}")
        for iw in (2, 4, 6, 8)
        for w in (32, 64, 96, 128)
        for rob in (48, 96, 128, 192)
    ][:N_CONFIGS]


def test_batch_sweep_throughput(benchmark):
    trace = _gate_trace()
    configs = _knob_slice()

    def run():
        sim = BatchHierarchySimulator(configs, seed=0)
        sim.warm_caches(trace)
        return sim.run(trace)

    results = benchmark(run)
    assert len(results) == N_CONFIGS


def test_scalar_sweep_throughput(benchmark):
    trace = _gate_trace()
    configs = _knob_slice()

    def run():
        out = []
        for config in configs:
            sim = HierarchySimulator(config, seed=0, engine="fast")
            sim.warm_caches(trace)
            out.append(sim.run(trace))
        return out

    results = benchmark(run)
    assert len(results) == N_CONFIGS


def test_batch_record_is_bit_identical():
    record = measure_batch_throughput(n_configs=8, accesses=2_000, rounds=1)
    assert record["identical"]
    assert record["speedup"] > 0


def measure_lane_crossover(*, accesses: int, rounds: int) -> dict:
    """Vectorized-kernel time over scalar fast-path time, per lane count.

    For each walk profile and lane count L from 1 to 64, the first L
    configs of a fixed shuffle of the 64-point two-level six-knob Table I
    grid run once through :meth:`BatchHierarchySimulator._run_kernel` and
    once as L scalar fast-path runs, both as perfect-L1 runs (construct +
    run) and as measured runs (construct + warm + run).  A ratio below 1.0
    means the kernel is the faster way to step L lanes.  Each time is the
    best of *rounds*, with the sides alternating within a round.
    """
    grid = {
        "issue_width": (4, 8), "iw_size": (32, 128), "rob_size": (32, 128),
        "l1_ports": (1, 4), "mshr_count": (4, 16), "l2_banks": (4, 16),
    }
    pool = [
        DEFAULT_MACHINE.with_knobs(name=f"t1-{i:02d}", **dict(zip(grid, values)))
        for i, values in enumerate(itertools.product(*grid.values()))
    ]
    random.Random(0).shuffle(pool)

    def kernel(configs, trace, perfect: bool) -> None:
        sim = BatchHierarchySimulator(configs, seed=0)
        if not perfect:
            sim.warm_caches(trace)
        sim._run_kernel(trace, perfect=perfect)

    def scalar(configs, trace, perfect: bool) -> None:
        for config in configs:
            sim = HierarchySimulator(config, seed=0, engine="fast")
            if not perfect:
                sim.warm_caches(trace)
            sim.run(trace, perfect=perfect)

    rows = []
    for profile in WALK_PROFILES:
        trace = get_benchmark(profile).trace(accesses, seed=WALK_TRACE_SEED)
        for lanes in (1, 2, 4, 8, 12, 16, 24, 32, 64):
            configs = pool[:lanes]
            row: dict = {"profile": profile, "lanes": lanes}
            for perfect in (True, False):
                best = {kernel: math.inf, scalar: math.inf}
                for _ in range(rounds):
                    for fn in (kernel, scalar):
                        t0 = time.perf_counter()
                        fn(configs, trace, perfect)
                        best[fn] = min(best[fn], time.perf_counter() - t0)
                row["perfect_ratio" if perfect else "measured_ratio"] = (
                    best[kernel] / best[scalar]
                )
            rows.append(row)
    return {"accesses": accesses, "rounds": rounds, "rows": rows}


def format_lane_crossover(record: dict) -> str:
    """The crossover record as a lanes x profile table of kernel/scalar."""
    profiles = list(dict.fromkeys(r["profile"] for r in record["rows"]))
    lanes = list(dict.fromkeys(r["lanes"] for r in record["rows"]))
    cell = {(r["profile"], r["lanes"]): r for r in record["rows"]}
    lines = [
        f"kernel/scalar time ratio, {record['accesses']} accesses, best of "
        f"{record['rounds']} (perfect-L1 run / measured run); "
        f"_MIN_VECTOR_LANES = {_MIN_VECTOR_LANES}",
        "lanes | " + " | ".join(f"{p:>15}" for p in profiles),
    ]
    for n in lanes:
        lines.append(f"{n:>5} | " + " | ".join(
            f"{cell[p, n]['perfect_ratio']:6.2f} / {cell[p, n]['measured_ratio']:5.2f}"
            for p in profiles
        ))
    return "\n".join(lines)


def test_lane_crossover_table(benchmark, artifact):
    record = benchmark.pedantic(
        measure_lane_crossover,
        kwargs={"accesses": CROSSOVER_ACCESSES, "rounds": CROSSOVER_ROUNDS},
        rounds=1, iterations=1,
    )
    artifact("P1_batch_lane_crossover", format_lane_crossover(record))
    assert all(r["perfect_ratio"] > 0 and r["measured_ratio"] > 0
               for r in record["rows"])
