"""``service-mixed``: the default ``repro serve`` under two closed-loop clients.

The server runs in a child process with the default inline runtime (no
pool workers) and a fresh ``--eval-cache`` and ``--journal`` per run.  One
asyncio process holds two client connections; each submits one job,
waits for it to reach a terminal state, then thinks for a seeded
exponential time before the next.  Every third job repeats an earlier
design point (a journal read); the rest are fresh (simulation plus journal
and cache writes), alternate between a cheap trace (401.bzip2) and a
costly one (429.mcf), and use seeded random design points.  This is the only
workload on the service, runtime, evaluation cache, journal and the scalar
engine path.

The think time keeps arrivals from falling into lock step with the
scheduler's 50 ms idle poll, and the queue is never kept saturated, so the
poll's cost stays visible in queue wait instead of being hidden.  Its mean
(10 ms) is small next to a fresh job (30-60 ms of simulation), so
``throughput_per_s`` (jobs per second) follows the job path rather than the
harness.  ``latency_p50_ms`` is the median job's time from submit to its
terminal state; the traced run adds the untraced server's p90
(``service.job_latency_p90_ms``, at least ten jobs beyond it).

Untraced, sessions of ``SESSION_S`` alternate (``ABBA``) between this
server and a server of the pinned program (``reference``), both following
the same job plan, and each figure is the ratio of the two servers' times
or rates, scaled by the pinned server's ``NOMINAL`` figure, so that host
drift cancels.  Traced, the second server is the program under test with
the layer wrappers installed, and the two give the tracing overhead.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import layers
import reference
from common import (
    BENCH_DIR, ROOT, SETUP_SAMPLES, SRC, BenchError, Outcome, Units, child_env, digest,
)
from ledger import Ledger, quantile_summary

PROFILES = ("401.bzip2", "429.mcf")
#: Fresh jobs take 30-60 ms of simulation at 4000 accesses, so the think
#: time below is a small share of a client's cycle.
ACCESSES = {"full": 4000, "small": 200}
#: Jobs per run, at least: enough for a p90 with ten samples beyond it.
MIN_JOBS = 120
MAX_WALL_S = 120.0
CLIENTS = 2
THINK_MEAN_S = 0.01
#: Sessions alternate between the two servers in this order, each about
#: ``SESSION_S`` long (see ``_drive``).
ABBA = (0, 1, 1, 0)
SESSION_S = 0.5
#: The pinned server's median figures (see ``reference``).
NOMINAL = {"throughput_per_s": 31.0, "latency_p50_ms": 48.0}
NOMINAL_SETUP_S = 1.1
#: Every third job repeats an earlier design point.
REPEAT_EVERY = 3
HOST = "127.0.0.1"
#: Per-layer metrics this workload measures (besides the ledger's own two).
PER_LAYER = (
    "workloads.trace_gen_s", "sim.engine.calls", "sim.engine.perfect_s",
    "sim.engine.warm_s", "sim.engine.run_s", "sim.engine.ns_per_instr",
    "sim.batch.calls", "analyzer.calls", "analyzer.measure_s",
    "runtime.evaluate_s", "runtime.self_s", "runtime.simulated",
    "runtime.cache_hits", "runtime.journal_hits", "runtime.reuse_ratio",
    "evalcache.get_calls", "evalcache.get_s", "evalcache.hit_ratio",
    "evalcache.put_calls", "evalcache.put_s", "journal.put_s", "pool.overhead_s",
    "service.submit_rtt_ms_p50", "service.queue_wait_ms_p50",
    "service.queue_wait_ms_p90", "service.exec_ms_p50",
    "service.latency_fresh_p50_ms", "service.latency_repeat_p50_ms",
    "service.batch_jobs_mean", "service.rejections", "service.job_latency_p90_ms",
)


# -- server child --------------------------------------------------------------
class Server:
    """One ``repro serve`` child process."""

    def __init__(self, workdir: Path, name: str, *, trace: bool = False,
                 src: Path = SRC) -> None:
        self.report_path = workdir / f"{name}.report.json"
        self.stderr_path = workdir / f"{name}.stderr"
        cmd = [
            sys.executable, str(BENCH_DIR / "server_child.py"),
            "--report", str(self.report_path), "--trace", str(int(trace)),
            "--src", str(src), "--",
            "--host", HOST, "--port", "0",
            "--eval-cache", str(workdir / f"{name}.evalcache"),
            "--journal", str(workdir / f"{name}.journal.jsonl"),
        ]
        self._stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=child_env(src), cwd=ROOT,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise BenchError(f"server did not start: {self.stderr_path.read_text()[-500:]}")
        self.port = int(line.rsplit(":", 1)[1])
        self.report: "dict | None" = None

    def stop(self) -> "dict | None":
        """Drain the server (SIGTERM) and read its report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        if self.report is None and self.report_path.exists():
            self.report = json.loads(self.report_path.read_text())
        return self.report


async def _register(port: int, traces) -> "list[str]":
    from repro.service import ServiceClient

    async with ServiceClient(HOST, port, client_id="setup") as client:
        return [await client.register_trace(trace) for trace in traces]


def _start(workdir: Path, name: str, traces, *, trace: bool = False, src: Path = SRC):
    server = Server(workdir, name, trace=trace, src=src)
    try:
        digests = asyncio.run(_register(server.port, traces))
    except BaseException:
        server.stop()
        raise
    return server, digests


# -- job plan ------------------------------------------------------------------
def job_plan(seed: int, n: int) -> "list[dict]":
    """*n* jobs with a fixed mix and seeded design points.

    Profiles alternate and every third job repeats an earlier point, so the
    share of cheap, costly and repeated jobs is the same for every seed; the
    seed picks the design points and which earlier point each repeat reuses.
    """
    from repro.reconfig.space import DEFAULT_LADDERS

    rng = random.Random(f"{seed}:plan")
    plan, fresh, seen = [], [], set()
    for i in range(n):
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            profile, knobs = rng.choice(fresh)
            repeat = True
        else:
            profile = len(fresh) % len(PROFILES)
            while True:
                knobs = {k: rng.choice(ladder) for k, ladder in DEFAULT_LADDERS.items()}
                key = (profile, tuple(sorted(knobs.items())))
                if key not in seen:
                    break
            seen.add(key)
            fresh.append((profile, knobs))
            repeat = False
        plan.append({"job_id": f"job{i:05d}", "profile": profile,
                     "config": {"knobs": knobs}, "repeat": repeat})
    return plan


# -- workload interface --------------------------------------------------------
def _traces(seed: int, scale: str):
    from repro.workloads import get_benchmark

    return [get_benchmark(name).trace(ACCESSES[scale], seed=seed) for name in PROFILES]


def setup(seed: int, scale: str, workdir: Path) -> dict:
    import repro.service  # noqa: F401  (import cost belongs to set-up)
    import repro.workloads  # noqa: F401

    # setup_s here is trace generation, server start and trace registration,
    # like the later samples; client imports are paid once per process.
    t0 = time.perf_counter()
    traces = _traces(seed, scale)
    server, digests = _start(workdir, "s0", traces)
    ctx = {"seed": seed, "scale": scale, "workdir": workdir, "traces": traces,
           "servers": [server], "server": server, "digests": digests,
           "setup_s": time.perf_counter() - t0}
    return ctx


async def _drive(targets, seed: int, seconds: float) -> "list[dict]":
    """Drive the servers in *targets* in turn, in ``ABBA`` blocks of sessions.

    Each target is ``(server, digests, plan)``.  In a session both clients
    run closed-loop jobs from that target's plan on its server for
    ``SESSION_S``, then finish their job in flight.  Blocks repeat until
    *seconds* have passed and every target has ``MIN_JOBS`` jobs.  Returns,
    per target, its jobs, session wall time and client rejections.
    """
    from repro.service import ServiceClient

    runs = [{"jobs": [], "wall": 0.0, "next": 0} for _ in targets]
    thinks = [random.Random(f"{seed}:think:{i}") for i in range(CLIENTS)]

    async def client_loop(client, t: int, think: random.Random, until: float) -> None:
        _, digests, plan = targets[t]
        run = runs[t]
        while time.perf_counter() < until:
            job = plan[run["next"]]
            run["next"] += 1
            t0 = time.perf_counter()
            reply = await client.submit_with_retry(
                job["job_id"], trace_digest=digests[job["profile"]],
                config=job["config"], seed=seed, warm=True,
            )
            t1 = time.perf_counter()
            final = reply
            if reply.get("ok"):
                final = await client.wait(job["job_id"], timeout_s=60.0)
            t2 = time.perf_counter()
            run["jobs"].append({**job, "submit_s": t0, "ack_s": t1, "end_s": t2,
                                "status": final.get("status"),
                                "source": final.get("source"),
                                "stats": final.get("stats")})
            await asyncio.sleep(think.expovariate(1.0 / THINK_MEAN_S))

    async with contextlib.AsyncExitStack() as stack:
        clients = [
            [await stack.enter_async_context(
                ServiceClient(HOST, server.port, client_id=f"c{i}", timeout_s=60.0,
                              seed=seed))
             for i in range(CLIENTS)]
            for server, _, _ in targets
        ]
        start = time.perf_counter()
        while True:
            for t in ABBA[:2 * len(targets)]:
                t0 = time.perf_counter()
                await asyncio.gather(*(
                    client_loop(clients[t][i], t, thinks[i], t0 + SESSION_S)
                    for i in range(CLIENTS)
                ))
                runs[t]["wall"] += time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_WALL_S or (
                elapsed >= seconds and min(len(r["jobs"]) for r in runs) >= MIN_JOBS
            ):
                break
        for t, run in enumerate(runs):
            run["rejections"] = sum(client.rejections for client in clients[t])
            run["start"], run["end"] = start, time.perf_counter()
    return runs


def _stop(server: Server) -> dict:
    """Drain *server* and read its report."""
    report = server.stop()
    if report is None:
        raise BenchError(
            f"server exited without a report: {server.stderr_path.read_text()[-500:]}"
        )
    return report


def measure(ctx: dict, seconds: float, ledger: "Ledger | None" = None) -> dict:
    """Sessions on the set-up server, alternating with sessions on a second
    server: the pinned program's (``reference``) untraced, a server with
    the wrappers installed traced.  Both follow the same job plan, each
    with its own journal and cache."""
    if ledger is None:
        src = reference.extract_pinned(ctx["workdir"])
        other, digests = _start(ctx["workdir"], "pinned", ctx["traces"], src=src)
    else:
        other, digests = _start(ctx["workdir"], "traced", ctx["traces"], trace=True)
    ctx["servers"].append(other)
    plan = job_plan(ctx["seed"], 4000)
    live, second = asyncio.run(_drive(
        [(ctx["server"], ctx["digests"], plan), (other, digests, plan)],
        ctx["seed"], seconds,
    ))
    live["report"], second["report"] = _stop(ctx["server"]), _stop(other)
    ctx["peak_rss_mb"] = live["report"]["peak_rss_mb"]
    if ledger is None:
        units = Units(plain=[live["wall"] / len(live["jobs"])],
                      start=live["start"], end=live["end"])
        return {"sessions": [live], "pinned": second, "units": units,
                "traced_wall": 0.0}
    traced = second
    ledger.merge(traced["report"]["ledger"])
    # The clients' side of each traced job, as spans tagged with its id.
    for job in traced["jobs"]:
        index = len(ledger.spans)
        ledger.spans.append(["client.job", job["submit_s"], job["end_s"], -1, job["job_id"]])
        ledger.spans.append(["client.submit", job["submit_s"], job["ack_s"], index,
                             job["job_id"]])
    # Client-side trace generation, recorded after the sessions.
    layers.install_workloads(ledger)
    try:
        _traces(ctx["seed"], ctx["scale"])
    finally:
        ledger.restore()
    units = Units(plain=[live["wall"] / len(live["jobs"])],
                  traced=[traced["wall"] / len(traced["jobs"])],
                  start=traced["start"], end=traced["end"])
    note = (f"overhead samples: {len(live['jobs'])} untraced and "
            f"{len(traced['jobs'])} traced jobs in alternating sessions "
            f"(seconds of session per job)")
    return {"sessions": [live, traced], "traced": traced, "units": units,
            "traced_wall": traced["wall"], "overhead_note": note}


def verify(ctx: dict, phase: dict, out: Outcome, corrupt: bool) -> None:
    """Every ``done`` job's stats equal a direct ``simulate_and_measure``."""
    from repro.service.protocol import config_from_wire
    from repro.sim.stats import simulate_and_measure

    if "pinned" in phase and any(j["status"] != "done" for j in phase["pinned"]["jobs"]):
        raise BenchError("a job on the pinned server did not finish")
    expected: "dict[tuple, str]" = {}
    if corrupt:
        first = phase["sessions"][0]["jobs"][0]
        first["stats"] = dict(first["stats"] or {}, cpi=-1.0)
    for session in phase["sessions"]:
        for job in session["jobs"]:
            if job["status"] != "done":
                out.check(False, f"{job['job_id']} ended {job['status']}")
                continue
            key = (job["profile"], json.dumps(job["config"], sort_keys=True))
            if key not in expected:
                _, stats = simulate_and_measure(
                    config_from_wire(job["config"]), ctx["traces"][job["profile"]],
                    seed=ctx["seed"], warm=True,
                )
                expected[key] = digest(json.loads(json.dumps(stats.to_dict())))
            out.check(digest(job["stats"]) == expected[key],
                      f"{job['job_id']} ({job['source']}) stats differ")


def _rate_and_latency(run: dict) -> "tuple[float, dict[int, float]]":
    """Jobs per second of session time, and latency p50/p90 (ms)."""
    latencies = [1000.0 * (j["end_s"] - j["submit_s"]) for j in run["jobs"]]
    return len(run["jobs"]) / run["wall"], quantile_summary(latencies, (50, 90))


def end_to_end(ctx: dict, phase: dict, out: Outcome) -> None:
    """Each figure is the ratio of the program's to the pinned server's,
    scaled by the pinned server's nominal figure."""
    live, pinned = phase["sessions"][0], phase["pinned"]
    rate, q = _rate_and_latency(live)
    pinned_rate, pinned_q = _rate_and_latency(pinned)
    out.put("throughput_per_s", NOMINAL["throughput_per_s"] * rate / pinned_rate, "1/s")
    out.put("latency_p50_ms", NOMINAL["latency_p50_ms"] * q[50] / pinned_q[50], "ms")
    for name, run, r, qs in (("program", live, rate, q), ("pinned", pinned, pinned_rate,
                                                          pinned_q)):
        repeats = sum(1 for j in run["jobs"] if j["source"] in ("journal", "cache"))
        out.notes.append(
            f"service, {name}: {len(run['jobs'])} jobs in {run['wall']:.2f} s of "
            f"sessions ({r:.2f} jobs/s) from {CLIENTS} closed-loop clients (think "
            f"{THINK_MEAN_S * 1000:.0f} ms mean); {repeats} served from journal/cache; "
            f"latency samples {len(run['jobs'])}, p50 {qs.get(50, float('nan')):.1f} ms, "
            f"p90 {qs.get(90, float('nan')):.1f} ms; {run['rejections']} rejections"
        )


def paired_setups(ctx: dict, first: float) -> "tuple[list[float], list[float]]":
    """Set-up times (trace generation, server start and trace registration)
    of the program under test (*first*, then fresh servers) and of the
    pinned program, alternating."""
    src = reference.extract_pinned(ctx["workdir"])
    live, pinned = [first], []
    while len(pinned) < SETUP_SAMPLES:
        for samples, name, program in ((pinned, "pinned", src), (live, "live", SRC)):
            if len(samples) == SETUP_SAMPLES:
                continue
            t0 = time.perf_counter()
            server, _ = _start(ctx["workdir"], f"setup-{name}{len(samples)}",
                               _traces(ctx["seed"], ctx["scale"]), src=program)
            samples.append(time.perf_counter() - t0)
            ctx["servers"].append(server)
            server.stop()
    return live, pinned


def close(ctx: dict) -> None:
    for server in ctx["servers"]:
        server.stop()


def install(ledger: Ledger) -> None:
    """Nothing to patch here: the traced server child installs its own."""


def _p50(values: "list[float]") -> "float | None":
    return quantile_summary(values, (50,)).get(50)


def per_layer(ctx: dict, phase: dict, ledger: Ledger, out: Outcome) -> None:
    """Per-job layer numbers from the traced server and the clients."""
    session = phase["traced"]
    jobs = session["jobs"]
    n = len(jobs)
    c = ledger.counters
    selfs = ledger.self_times()

    def total(name: str) -> float:
        return sum(ledger.durations(name))

    out.put("workloads.trace_gen_s", total("workloads.trace"), "s")
    engine_time = total("sim.engine.run") + total("sim.engine.perfect")
    out.put("sim.engine.calls", c["sim.engine.calls"] / n, "count")
    out.put("sim.engine.perfect_s", total("sim.engine.perfect") / n, "s")
    out.put("sim.engine.warm_s", total("sim.engine.warm") / n, "s")
    out.put("sim.engine.run_s", total("sim.engine.run") / n, "s")
    out.put("sim.engine.ns_per_instr", 1e9 * engine_time / c["sim.engine.instr"], "ns")
    out.put("sim.batch.calls", c["sim.batch.calls"] / n, "count")
    out.put("analyzer.calls", c["analyzer.calls"] / n, "count")
    out.put("analyzer.measure_s", total("analyzer.measure") / n, "s")

    requests = c["runtime.requests"]
    out.put("runtime.evaluate_s", total("runtime.evaluate") / n, "s")
    out.put("runtime.self_s", selfs.get("runtime.evaluate", 0.0) / n, "s")
    out.put("runtime.simulated", c["runtime.source.simulated"] / n, "count")
    out.put("runtime.cache_hits", c["runtime.source.cache"] / n, "count")
    out.put("runtime.journal_hits", c["runtime.source.journal"] / n, "count")
    out.put("runtime.reuse_ratio",
            (c["runtime.source.cache"] + c["runtime.source.journal"]) / requests, "1")
    gets = c["evalcache.get_calls"]
    out.put("evalcache.get_calls", gets / n, "count")
    out.put("evalcache.get_s", total("evalcache.get") / n, "s")
    out.put("evalcache.hit_ratio", c["evalcache.hits"] / gets if gets else 0.0, "1")
    out.put("evalcache.put_calls", c["evalcache.put_calls"] / n, "count")
    out.put("evalcache.put_s", total("evalcache.put") / n, "s")
    out.put("journal.put_s", total("journal.put") / n, "s")
    out.put("pool.overhead_s", selfs.get("pool.run", 0.0) / n, "s")

    # Queue wait: from the scheduler's acknowledgement of a job to the start
    # of the runtime call that evaluates it (first call carrying its key).
    execs = sorted((e[1], e[2], set(e[3])) for e in ledger.events if e[0] == "exec")
    waits, exec_ms, batch_sizes = [], [], [len(e[2]) for e in execs]
    for _, ack_s, job_id, key in (e for e in ledger.events if e[0] == "ack"):
        for start, end, keys in execs:
            if start >= ack_s and key in keys:
                waits.append(1000.0 * (start - ack_s))
                exec_ms.append(1000.0 * (end - start))
                break
    q = quantile_summary(waits, (50, 90))
    rtts = [1000.0 * (j["ack_s"] - j["submit_s"]) for j in jobs]
    fresh = [1000.0 * (j["end_s"] - j["submit_s"]) for j in jobs if j["source"] == "simulated"]
    repeat = [1000.0 * (j["end_s"] - j["submit_s"]) for j in jobs
              if j["source"] in ("journal", "cache")]
    for name, value in (
        ("service.submit_rtt_ms_p50", _p50(rtts)),
        ("service.queue_wait_ms_p50", q.get(50)),
        ("service.queue_wait_ms_p90", q.get(90)),
        ("service.exec_ms_p50", _p50(exec_ms)),
        ("service.latency_fresh_p50_ms", _p50(fresh)),
        ("service.latency_repeat_p50_ms", _p50(repeat)),
    ):
        if value is not None:
            out.put(name, value, "ms")
    out.put("service.batch_jobs_mean", sum(batch_sizes) / len(batch_sizes), "count")
    out.put("service.rejections", session["rejections"], "count")
    _, live_q = _rate_and_latency(phase["sessions"][0])
    if 90 in live_q:
        out.put("service.job_latency_p90_ms", live_q[90], "ms")
    out.notes.append(
        f"service samples: {len(rtts)} submits, {len(waits)} queue waits, "
        f"{len(exec_ms)} executions, {len(fresh)} fresh and {len(repeat)} repeat "
        f"latencies, {len(batch_sizes)} runtime calls, "
        f"{len(phase['sessions'][0]['jobs'])} untraced job latencies (p90); "
        f"per-layer times and "
        f"counts are per job over {n} jobs; rejections are a total"
    )
