"""Where the traced run puts its spans: one installer per layer of ``repro``.

Each installer wraps public functions and methods of one module (and, where
another module imported a function by name, that module's reference too);
nothing inside ``src/`` changes.  Counts are recorded at the same boundary
as the spans.  ``_PREFIXES`` maps span names to the layer a span's self
time is charged to.  Wall time that no layer's spans cover (the harness,
client think time, an idle server) is reported as unexplained.
"""

from __future__ import annotations

from ledger import Ledger

LAYERS = (
    "repro.workloads",
    "repro.sim.engine",
    "repro.sim.batch",
    "analyzer",
    "repro.analysis.sweep",
    "repro.analysis.surrogate",
    "explorer/algorithm",
    "repro.runtime",
    "repro.service",
    "repro.lint",
)

_PREFIXES = (
    ("workloads.", "repro.workloads"),
    ("sim.engine.", "repro.sim.engine"),
    ("sim.stats.simulate_and_measure_batch", "repro.sim.batch"),
    ("sim.stats.simulate_and_measure", "repro.sim.engine"),
    ("sim.batch.", "repro.sim.batch"),
    ("analyzer.", "analyzer"),
    ("sweep.", "repro.analysis.sweep"),
    ("surrogate.", "repro.analysis.surrogate"),
    ("algorithm.", "explorer/algorithm"),
    ("explorer.", "explorer/algorithm"),
    ("runtime.", "repro.runtime"),
    ("evalcache.", "repro.runtime"),
    ("journal.", "repro.runtime"),
    ("pool.", "repro.runtime"),
    ("service.", "repro.service"),
    ("lint.", "repro.lint"),
)


#: Per-layer metrics, name and unit, in the order the traced run prints
#: them.  Every workload prints all of them with ``--trace 1``; a metric of
#: a layer the workload does not run reads 0 (see ``run.py``).  The last
#: four are not times: the surrogate's accuracy against the engine (the
#: reference, since the simulator is not validated against hardware), the
#: simulations the Fig. 3 walks spent, and the untraced server's job
#: latency p90.
PER_LAYER = (
    ("workloads.trace_gen_s", "s"),
    ("workloads.profile_s", "s"),
    ("sim.engine.calls", "count"),
    ("sim.engine.perfect_s", "s"),
    ("sim.engine.warm_s", "s"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.ns_per_instr", "ns"),
    ("sim.batch.calls", "count"),
    ("sim.batch.lanes_per_call", "count"),
    ("sim.batch.perfect_s", "s"),
    ("sim.batch.warm_s", "s"),
    ("sim.batch.run_s", "s"),
    ("sim.batch.ns_per_lane_instr", "ns"),
    ("sim.batch.fallback_configs", "count"),
    ("analyzer.calls", "count"),
    ("analyzer.measure_s", "s"),
    ("sweep.self_s", "s"),
    ("surrogate.predict_s", "s"),
    ("algorithm.steps", "count"),
    ("explorer.requested_configs", "count"),
    ("explorer.dedup_hits", "count"),
    ("explorer.self_s", "s"),
    ("runtime.evaluate_s", "s"),
    ("runtime.self_s", "s"),
    ("runtime.simulated", "count"),
    ("runtime.cache_hits", "count"),
    ("runtime.journal_hits", "count"),
    ("runtime.reuse_ratio", "1"),
    ("evalcache.get_calls", "count"),
    ("evalcache.get_s", "s"),
    ("evalcache.hit_ratio", "1"),
    ("evalcache.put_calls", "count"),
    ("evalcache.put_s", "s"),
    ("journal.put_s", "s"),
    ("pool.overhead_s", "s"),
    ("service.submit_rtt_ms_p50", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("service.latency_fresh_p50_ms", "ms"),
    ("service.latency_repeat_p50_ms", "ms"),
    ("service.batch_jobs_mean", "count"),
    ("service.rejections", "count"),
    ("lint.file_tier_s", "s"),
    ("lint.program.build_s", "s"),
    ("lint.program.callgraph_s", "s"),
    ("lint.program.dataflow_s", "s"),
    ("lint.program.locks_s", "s"),
    ("lint.program.values_s", "s"),
    ("lint.program.rules_s", "s"),
    ("lint.parses", "count"),
    ("lint.parse_reuse", "count"),
    ("ledger.unexplained_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("surrogate.cpi_err_pct", "%"),
    ("surrogate.rank_tau", "1"),
    ("explorer.simulated_configs", "count"),
    ("service.job_latency_p90_ms", "ms"),
)

#: Which end-to-end metric each per-layer metric should move, and where.
#: Written down before measuring; the traced run prints the relevant rows.
PREDICTIONS = (
    ("workloads.trace_gen_s", "setup_s on table1-sweep, fig3-walk, service-mixed"),
    ("workloads.profile_s", "no timed metric: paid by fidelity=multi; prices a "
                            "change that claims surrogate.cpi_err_pct"),
    ("surrogate.", "no timed metric: the surrogate's cost and accuracy on "
                   "table1-sweep"),
    ("sim.engine.", "throughput_per_s and latency_p50_ms on service-mixed "
                    "(scalar dispatch); no change on table1-sweep (all "
                    "batch-eligible)"),
    ("sim.batch.", "throughput_per_s on table1-sweep (64 lanes/call) and on "
                   "fig3-walk (4-5 lanes/call); no change on service-mixed"),
    ("analyzer.", "throughput_per_s on table1-sweep, fig3-walk and service-mixed"),
    ("sweep.", "throughput_per_s on table1-sweep"),
    ("algorithm.steps", "explorer.simulated_configs and throughput_per_s on "
                        "fig3-walk"),
    ("explorer.self_s", "throughput_per_s on fig3-walk"),
    ("explorer.", "throughput_per_s on fig3-walk"),
    ("runtime.evaluate_s", "latency_p50_ms on service-mixed"),
    ("runtime.self_s", "latency_p50_ms on service-mixed"),
    ("runtime.", "throughput_per_s and latency_p50_ms on service-mixed"),
    ("evalcache.", "repeat-job latency (service.latency_repeat_p50_ms)"),
    ("journal.", "fresh-job latency (service.latency_fresh_p50_ms)"),
    ("pool.", "throughput_per_s on service-mixed"),
    ("service.submit_rtt", "latency_p50_ms and service.job_latency_p90_ms on "
                           "service-mixed"),
    ("service.queue_wait", "latency_p50_ms and service.job_latency_p90_ms on "
                           "service-mixed"),
    ("service.exec", "throughput_per_s on service-mixed"),
    ("service.batch", "throughput_per_s on service-mixed"),
    ("service.rejections", "job latency and failed jobs on service-mixed"),
    ("service.latency_", "split so a cache change that speeds reads but slows "
                         "writes shows"),
    ("lint.", "throughput_per_s and latency_p50_ms on lint-program and "
              "nothing else"),
)


def prediction_for(metric: str) -> "str | None":
    for prefix, text in PREDICTIONS:
        if metric.startswith(prefix):
            return text
    return None


def layer_of(span_name: str) -> "str | None":
    for prefix, layer in _PREFIXES:
        if span_name.startswith(prefix):
            return layer
    return None


def _run_name(kind: str):
    def name(args, kwargs) -> str:
        return f"{kind}.perfect" if kwargs.get("perfect") else f"{kind}.run"
    return name


def install_workloads(ledger: Ledger) -> None:
    from repro.workloads import locality, spec

    ledger.wrap(spec.BenchmarkProfile, "trace", "workloads.trace")
    ledger.wrap(locality, "profile_trace", "workloads.profile")


def install_sim(ledger: Ledger) -> None:
    """Scalar engine, batch kernel, analyzer and the two measure paths."""
    from repro.analysis import sweep
    from repro.sim import batch, engine, stats

    def engine_run(ledger, args, kwargs, result, index):
        ledger.count("sim.engine.calls")
        ledger.count("sim.engine.instr", result.instructions_executed)

    def batch_run(ledger, args, kwargs, result, index):
        ledger.count("sim.batch.calls")
        ledger.count("sim.batch.lanes", len(result))
        ledger.count(
            "sim.batch.lane_instr", sum(r.instructions_executed for r in result)
        )

    def partition(ledger, args, kwargs, result, index):
        ledger.count("sim.batch.fallback_configs", len(result[1]))

    def analyzer(ledger, args, kwargs, result, index):
        ledger.count("analyzer.calls")

    ledger.wrap(engine.HierarchySimulator, "run", _run_name("sim.engine"), engine_run)
    ledger.wrap(engine.HierarchySimulator, "warm_caches", "sim.engine.warm")
    ledger.wrap(batch.BatchHierarchySimulator, "run", _run_name("sim.batch"), batch_run)
    ledger.wrap(batch.BatchHierarchySimulator, "warm_caches", "sim.batch.warm")
    ledger.wrap(batch, "partition_eligible", "sim.batch.partition", partition)
    ledger.wrap(stats, "measure_hierarchy", "analyzer.measure", analyzer)
    for module in (stats, sweep):
        ledger.wrap(module, "simulate_and_measure",
                    "sim.stats.simulate_and_measure")
        ledger.wrap(module, "simulate_and_measure_batch",
                    "sim.stats.simulate_and_measure_batch")


def install_surrogate(ledger: Ledger) -> None:
    import repro.analysis.surrogate as surrogate

    ledger.wrap(surrogate, "predict_many", "surrogate.predict_many")


def install_explorer(ledger: Ledger) -> None:
    """The Fig. 3 backend's public steps and its measurement boundary."""
    from repro.reconfig import explorer

    def measure_many(ledger, args, kwargs, result, index):
        ledger.count("explorer.requested_configs", len(args[1]))

    cls = explorer.GreedyReconfigBackend
    for method in ("measure", "optimize", "deprovision"):
        ledger.wrap(cls, method, f"explorer.{method}")
    ledger.wrap(cls, "_measure_many", "explorer.measure_many", measure_many)


def install_runtime(ledger: Ledger) -> None:
    """Evaluation runtime, evaluation cache, journal and pool."""
    from repro.runtime import evalcache, evaluate, journal, pool

    def evaluated(ledger, args, kwargs, result, index):
        requests = args[1]
        span = ledger.spans[index]
        ledger.event("exec", span[1], span[2], [r.key for r in requests])
        ledger.count("runtime.requests", len(requests))
        for outcome in result.values():
            ledger.count(f"runtime.source.{outcome.source}")

    def cache_get(ledger, args, kwargs, result, index):
        ledger.count("evalcache.get_calls")
        ledger.count("evalcache.hits", result is not None)

    # Tagged with the evaluation keys of its requests; the "ack" events map
    # each key back to the job ids the clients chose.
    ledger.wrap(evaluate.EvaluationRuntime, "evaluate_many_detailed",
                "runtime.evaluate", evaluated,
                tag=lambda args, kwargs: ",".join(r.key for r in args[1]))
    ledger.wrap(evalcache.EvaluationCache, "get", "evalcache.get", cache_get)
    ledger.wrap(evalcache.EvaluationCache, "put", "evalcache.put",
                lambda ledger, *rest: ledger.count("evalcache.put_calls"))
    ledger.wrap(journal.CheckpointJournal, "put", "journal.put")
    ledger.wrap(pool.EvaluationPool, "run", "pool.run")


def install_service(ledger: Ledger) -> None:
    """Record when the scheduler acknowledges each admitted job."""
    from repro.service import scheduler

    def submitted(ledger, args, kwargs, result, index):
        record = args[1]
        status, _ = result
        if status == "queued":
            ledger.event("ack", ledger.spans[index][2], record.job_id,
                         record.request.key)

    ledger.wrap(scheduler.JobScheduler, "submit", "service.submit", submitted)


def install_lint(ledger: Ledger) -> None:
    """Phases of the whole-program driver and every program rule."""
    from repro.lint.program import driver, rules

    ledger.wrap(driver, "build_program", "lint.program.build")
    for name in ("build_call_graph", "find_entry_points", "classify_contexts"):
        ledger.wrap(driver, name, "lint.program.callgraph")
    ledger.wrap(driver, "EffectAnalysis", "lint.program.dataflow")
    ledger.wrap(driver, "LockAnalysis", "lint.program.locks")
    ledger.wrap(rules, "ValueAnalysis", "lint.program.values")
    for rule in rules.PROGRAM_RULES.values():
        ledger.wrap(rule, "check", "lint.program.rule", consume=True)


def put_batch_metrics(ledger: Ledger, units: int, out) -> None:
    """Batch-kernel, scalar-call and analyzer numbers per unit of work."""
    c = ledger.counters
    run = sum(ledger.durations("sim.batch.run"))
    perfect = sum(ledger.durations("sim.batch.perfect"))
    out.put("sim.engine.calls", c["sim.engine.calls"] / units, "count")
    out.put("sim.batch.calls", c["sim.batch.calls"] / units, "count")
    out.put("sim.batch.lanes_per_call", c["sim.batch.lanes"] / c["sim.batch.calls"], "count")
    out.put("sim.batch.perfect_s", perfect / units, "s")
    out.put("sim.batch.warm_s", sum(ledger.durations("sim.batch.warm")) / units, "s")
    out.put("sim.batch.run_s", run / units, "s")
    out.put("sim.batch.ns_per_lane_instr", 1e9 * (run + perfect) / c["sim.batch.lane_instr"],
            "ns")
    out.put("sim.batch.fallback_configs", c["sim.batch.fallback_configs"] / units, "count")
    out.put("analyzer.calls", c["analyzer.calls"] / units, "count")
    out.put("analyzer.measure_s", sum(ledger.durations("analyzer.measure")) / units, "s")


def coverage(ledger: Ledger, start: float, end: float,
             wall_s: float) -> "tuple[dict[str, float], float]":
    """Self time per layer of the spans inside ``[start, end]``, and the
    share (%) of the traced wall time *wall_s* that no layer explains."""
    window = Ledger()
    window.spans = [
        s if s[2] is not None and start <= s[1] and s[2] <= end
        else [s[0], s[1], None, s[3], s[4]]
        for s in ledger.spans
    ]
    per_layer: "dict[str, float]" = {}
    for name, seconds in window.self_times().items():
        layer = layer_of(name)
        if layer is not None:
            per_layer[layer] = per_layer.get(layer, 0.0) + seconds
    return per_layer, 100.0 * (wall_s - sum(per_layer.values())) / wall_s


def format_ledger(per_layer: "dict[str, float]", wall_s: float, unexplained: float,
                  overhead_pct: float, metrics: "list[str]") -> "list[str]":
    lines = ["predicted effect of each per-layer metric:"]
    groups: "dict[str, list[str]]" = {}
    for metric in metrics:
        text = prediction_for(metric)
        if text is not None:
            groups.setdefault(text, []).append(metric)
    for text, names in groups.items():
        lines.append(f"  {', '.join(names)}\n      -> {text}")
    lines.append(f"ledger: wall {wall_s:.3f} s of traced work")
    for layer in LAYERS:
        if layer in per_layer:
            seconds = per_layer[layer]
            lines.append(
                f"  {layer:26s} self {seconds:9.4f} s  {100 * seconds / wall_s:5.1f}%"
            )
    lines.append(f"  {'(no layer)':26s} {unexplained:5.1f}% of wall time")
    lines.append(f"tracing overhead: {overhead_pct:+.1f}% per unit vs the untraced units")
    return lines
