"""``table1-sweep``: the six-knob Table I grid at engine fidelity.

``sweep_configs`` with the default ``engine="auto"`` and no runtime, so the
64-lane batch kernel and the perfect-L1 CPI_exe runs do nearly all the
work.  The grid has two values per knob; eight configs share each
core-knob triple (issue width, IW, ROB) and all 64 share one cache
geometry, so a CPI_exe memo or a warm-state snapshot would show here.
The tier-0 surrogate is scored on the same grid (over a fixed set of
traces, ``SCORE_SEEDS``), with the engine as the reference: the simulator
is not validated against hardware.

Untraced, each profile's sweep is paired with the same sweep on the pinned
program (``reference``).  ``latency_p50_ms`` is the median time ratio of a
pass (the grid over the three profiles) times ``NOMINAL_S``, and
``throughput_per_s`` is the configs of a pass over that time.  The
surrogate's accuracy is part of the traced run's per-layer numbers.
"""

from __future__ import annotations

import itertools
import sys

import layers
import reference
from common import Outcome, digest, median

PROFILES = ("410.bwaves", "429.mcf", "401.bzip2")
GRID = {
    "issue_width": (4, 8),
    "iw_size": (32, 128),
    "rob_size": (32, 128),
    "l1_ports": (1, 4),
    "mshr_count": (4, 16),
    "l2_banks": (4, 16),
}
ACCESSES = {"full": 1500, "small": 300}
#: The surrogate is scored on a fixed set of traces, the same in every run:
#: its error varies a lot from one trace seed to the next, and a fixed set
#: makes the figure move only when the surrogate or the engine changes.
SCORE_SEEDS = (0, 1)
SCORE_ACCESSES = {"full": 2500, "small": 300}
#: Median time of one pass on the pinned program (see ``reference``).
NOMINAL_S = 1.6
#: Median set-up time of the pinned program, for ``setup_s``.
NOMINAL_SETUP_S = 0.9
#: Per-layer metrics this workload measures (besides the ledger's own two).
PER_LAYER = (
    "workloads.trace_gen_s", "workloads.profile_s", "surrogate.predict_s",
    "sim.engine.calls", "sim.batch.calls", "sim.batch.lanes_per_call",
    "sim.batch.perfect_s", "sim.batch.warm_s", "sim.batch.run_s",
    "sim.batch.ns_per_lane_instr", "sim.batch.fallback_configs",
    "analyzer.calls", "analyzer.measure_s", "sweep.self_s",
    "surrogate.cpi_err_pct", "surrogate.rank_tau",
)


def setup(seed: int, scale: str, workdir) -> dict:
    from repro.sim.params import MachineConfig
    from repro.workloads import get_benchmark

    import repro.analysis.sweep  # noqa: F401  (import cost belongs to set-up)

    grid = [
        MachineConfig().with_knobs(name=f"t1-{i:02d}", **dict(zip(GRID, values)))
        for i, values in enumerate(itertools.product(*GRID.values()))
    ]
    traces = [get_benchmark(name).trace(ACCESSES[scale], seed=seed) for name in PROFILES]
    return {"seed": seed, "grid": grid, "traces": traces, "scale": scale}


def parts(ctx: dict) -> int:
    return len(ctx["traces"])


def part(ctx: dict, k: int, ledger=None, tag: str = "") -> "list[dict]":
    """Sweep the grid over trace *k*; the configs' stats dicts."""
    from repro.analysis.sweep import sweep_configs

    trace = ctx["traces"][k]
    if ledger is None:
        result = sweep_configs(ctx["grid"], trace, seed=ctx["seed"])
    else:
        with ledger.span("sweep.sweep_configs", tag=tag):
            result = sweep_configs(ctx["grid"], trace, seed=ctx["seed"])
    return [s.to_dict() for s in result.stats]


def measure(ctx: dict, seconds: float, ledger=None) -> dict:
    """Sweep passes (one ``part`` per profile) for about *seconds*."""
    phase = reference.measure_units(ctx, seconds, sys.modules[__name__], ledger,
                                    min_reps=2)
    if ledger is not None:
        # After the timed window: trace generation and surrogate scoring are
        # reported by the ledger but are not part of a sweep pass.
        from repro.workloads import get_benchmark

        inputs = score_inputs(ctx)
        install(ledger)
        try:
            for name in PROFILES:
                get_benchmark(name).trace(ACCESSES[ctx["scale"]], seed=ctx["seed"])
            phase["surrogate"] = score_surrogate(ctx, inputs)
        finally:
            ledger.restore()
    return phase


def _rows(unit: "list[list[dict]]") -> "list[dict]":
    return [row for rows in unit for row in rows]


def verify(ctx: dict, phase: dict, out: Outcome, corrupt: bool) -> None:
    """Every config's stats digest equals the scalar engine's for this seed."""
    from repro.analysis.sweep import sweep_configs

    expected = []
    for trace in ctx["traces"]:
        result = sweep_configs(ctx["grid"], trace, seed=ctx["seed"], engine="scalar")
        expected.extend(digest(s.to_dict()) for s in result.stats)
    if corrupt:
        phase["results"][0][0][0]["cpi"] += 1e-9
    for rep, unit in enumerate(phase["results"]):
        for i, row in enumerate(_rows(unit)):
            out.check(digest(row) == expected[i], f"pass {rep} config {i}")


def _kendall_tau(xs: "list[float]", ys: "list[float]") -> float:
    """Kendall tau-b of two equally long sequences."""
    concordant = discordant = ties_x = ties_y = 0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    denom = ((concordant + discordant + ties_x) * (concordant + discordant + ties_y)) ** 0.5
    return (concordant - discordant) / denom


def score_inputs(ctx: dict) -> "list[tuple]":
    """The fixed scoring set: ``(trace, engine CPIs over the grid)`` for
    each profile at each of ``SCORE_SEEDS``, by ``sweep_configs``."""
    from repro.analysis.sweep import sweep_configs
    from repro.workloads import get_benchmark

    inputs = []
    for seed in SCORE_SEEDS:
        for name in PROFILES:
            trace = get_benchmark(name).trace(SCORE_ACCESSES[ctx["scale"]], seed=seed)
            result = sweep_configs(ctx["grid"], trace, seed=seed)
            inputs.append((trace, [s.cpi for s in result.stats]))
    return inputs


def score_surrogate(ctx: dict, inputs: "list[tuple]") -> "tuple[float, float]":
    """Mean |predicted - engine| / engine CPI (%) and mean per-trace tau
    over the scoring set ``score_inputs`` returns."""
    from repro.analysis.surrogate import predict_many
    from repro.workloads.locality import profile_trace

    grid = ctx["grid"]
    errors, taus = [], []
    for trace, engine in inputs:
        profile = profile_trace(trace, line_bytes=grid[0].l1.line_bytes, warm=True)
        predicted = [pr.cpi for pr in predict_many(profile, grid)]
        errors.extend(abs(a - b) / b for a, b in zip(predicted, engine))
        taus.append(_kendall_tau(predicted, engine))
    return 100.0 * sum(errors) / len(errors), sum(taus) / len(taus)


def end_to_end(ctx: dict, phase: dict, out: Outcome) -> None:
    paired = phase["paired"]
    n_configs = len(ctx["grid"]) * len(ctx["traces"])
    pass_s = paired.ratio() * NOMINAL_S
    out.put("throughput_per_s", n_configs / pass_s, "1/s")
    out.put("latency_p50_ms", 1000.0 * pass_s, "ms")
    out.notes.append(
        "sweep: " + paired.note(f"passes of {n_configs} configs") + f"; "
        f"{n_configs / median(paired.units.plain):.1f} configs/s at this host's speed"
    )


def install(ledger) -> None:
    layers.install_workloads(ledger)
    layers.install_sim(ledger)
    layers.install_surrogate(ledger)


def per_layer(ctx: dict, phase: dict, ledger, out: Outcome) -> None:
    """Per-layer numbers per traced sweep pass (trace generation, profiling
    and prediction: once per run)."""
    units = len(phase["units"].traced)

    def total(name: str) -> float:
        return sum(ledger.durations(name))

    out.put("workloads.trace_gen_s", total("workloads.trace"), "s")
    out.put("workloads.profile_s", total("workloads.profile"), "s")
    out.put("surrogate.predict_s", total("surrogate.predict_many"), "s")
    layers.put_batch_metrics(ledger, units, out)
    out.put("sweep.self_s",
            ledger.self_times().get("sweep.sweep_configs", 0.0) / units, "s")
    err, tau = phase["surrogate"]
    out.put("surrogate.cpi_err_pct", err, "%")
    out.put("surrogate.rank_tau", tau, "1")
