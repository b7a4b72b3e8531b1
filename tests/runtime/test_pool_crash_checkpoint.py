"""Death mid-checkpoint: the window between result arrival and journal flush.

The supervised pool checkpoints each job the moment its result arrives
(``on_result`` → ``CheckpointJournal.put``).  Two processes can die inside
that window:

* the **supervisor** — SIGKILLed after a worker has sent a result but
  before the journal line for it is flushed.  The result is lost with the
  process; on resume, exactly the unjournaled jobs must be recomputed and
  every journaled one replayed from disk;
* a **worker** — SIGKILLed mid-job.  The supervisor charges a
  ``WorkerCrashed`` attempt, replaces the worker, and the retried job's
  result still lands in the journal exactly once.

Both are integration tests against real processes and real SIGKILL, not
monkeypatched stand-ins.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.runtime.journal import CheckpointJournal
from repro.runtime.pool import PoolConfig, RetryPolicy
from repro.sim.params import MachineConfig
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

TRACE_ACCESSES = 300
TRACE_SEED = 11
N_JOBS = 4

#: The supervisor-side script: run a 4-job pooled batch whose journal
#: SIGKILLs the *whole process* right before flushing the final job's
#: entry — i.e. after the worker already sent the result over its pipe.
#: Just before the kill it writes its workers' PIDs, one a line.
#: argv: <journal_path> <pid_path>
KILLED_RUN_SCRIPT = """
import multiprocessing, os, signal, sys
from pathlib import Path
from repro.runtime.evaluate import EvaluationRequest, EvaluationRuntime
from repro.runtime.journal import CheckpointJournal
from repro.runtime.pool import PoolConfig
from repro.sim.params import MachineConfig
from repro.workloads.generators import working_set_addresses
from repro.workloads.trace import Trace

TRACE_ACCESSES = {accesses}
TRACE_SEED = {seed}
N_JOBS = {n_jobs}
N_WORKERS = {n_workers}


class DyingJournal(CheckpointJournal):
    def put(self, key, value):
        if key == "job-" + str(N_JOBS - 1):
            # The worker's result for this job has been received (we are in
            # the on_result checkpoint callback) but not yet flushed: this
            # is precisely the crash window under test.
            Path(sys.argv[2]).write_text("\\n".join(
                str(child.pid) for child in multiprocessing.active_children()
            ))
            os.kill(os.getpid(), signal.SIGKILL)
        super().put(key, value)


trace = Trace.from_memory_addresses(
    working_set_addresses(TRACE_ACCESSES, footprint_bytes=64 * 1024,
                          seed=TRACE_SEED),
    compute_per_access=1, name="ckpt", seed=TRACE_SEED,
)
requests = [
    EvaluationRequest(key="job-" + str(i), config=MachineConfig(),
                      trace=trace, seed=i)
    for i in range(N_JOBS)
]
runtime = EvaluationRuntime(
    pool=PoolConfig(max_workers=N_WORKERS, timeout_s=120),
    journal=DyingJournal(sys.argv[1]),
)
runtime.evaluate_many(requests)
raise SystemExit("unreachable: the journal must have killed this process")
"""


#: How long an orphaned worker may take to notice its supervisor is gone.
ORPHAN_EXIT_S = 5.0


def _run_killed_supervisor(tmp_path, n_workers):
    """Run ``KILLED_RUN_SCRIPT``; return its journal path and worker PIDs."""
    journal_path = tmp_path / "ckpt.jsonl"
    pid_path = tmp_path / "workers.txt"
    script = KILLED_RUN_SCRIPT.format(
        accesses=TRACE_ACCESSES, seed=TRACE_SEED, n_jobs=N_JOBS,
        n_workers=n_workers,
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # Capture into files, not pipes: the forked pool workers inherit the
    # supervisor's stdout/stderr, so after the SIGKILL a pipe would stay
    # open until every worker had exited — run() would block on EOF.
    stderr_path = tmp_path / "stderr.txt"
    with stderr_path.open("wb") as stderr_fh:
        proc = subprocess.run(
            [sys.executable, "-c", script, str(journal_path), str(pid_path)],
            stdout=subprocess.DEVNULL, stderr=stderr_fh,
            env=env, timeout=300,
        )
    # The run died by SIGKILL, not by finishing or erroring out.
    assert proc.returncode == -signal.SIGKILL, stderr_path.read_text()
    pids = [int(line) for line in pid_path.read_text().split()]
    assert len(pids) == n_workers
    return journal_path, pids


def _running(pid):
    """Whether *pid* is a live process (an unreaped zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _assert_workers_exit(pids):
    """Every orphaned worker exits soon after its supervisor's SIGKILL."""
    deadline = time.monotonic() + ORPHAN_EXIT_S
    while time.monotonic() < deadline and any(_running(p) for p in pids):
        time.sleep(0.05)
    alive = [p for p in pids if _running(p)]
    for pid in alive:  # do not leave them behind for the rest of the suite
        os.kill(pid, signal.SIGKILL)
    assert not alive, f"pool workers outlived their supervisor: {alive}"


def _trace():
    return Trace.from_memory_addresses(
        working_set_addresses(TRACE_ACCESSES, footprint_bytes=64 * 1024,
                              seed=TRACE_SEED),
        compute_per_access=1, name="ckpt", seed=TRACE_SEED,
    )


def _requests(trace):
    return [
        EvaluationRequest(key=f"job-{i}", config=MachineConfig(),
                          trace=trace, seed=i)
        for i in range(N_JOBS)
    ]


class TestSupervisorDeathMidCheckpoint:
    def test_sigkill_between_result_send_and_journal_flush(self, tmp_path):
        journal_path, pids = _run_killed_supervisor(tmp_path, n_workers=1)
        _assert_workers_exit(pids)

        # With one worker, jobs complete in submission order: every job but
        # the last was flushed before the kill; the last one's result died
        # with the supervisor.
        survived = CheckpointJournal(journal_path)
        assert sorted(survived.keys()) == [f"job-{i}" for i in range(N_JOBS - 1)]
        assert survived.dropped_lines == 0  # each line was flushed whole

        # Exact resume: only the lost job is recomputed.
        trace = _trace()
        resumed = EvaluationRuntime(
            pool=PoolConfig(max_workers=1, timeout_s=120), journal=journal_path
        )
        out = resumed.evaluate_many(_requests(trace))
        assert resumed.counters.journal_hits == N_JOBS - 1
        assert resumed.counters.simulations == 1
        assert resumed.last_sources[f"job-{N_JOBS - 1}"] == "simulated"

        # And the recomputed batch is bit-identical to a clean direct run.
        clean = EvaluationRuntime().evaluate_many(_requests(trace))
        for key in clean:
            assert out[key].to_dict() == clean[key].to_dict(), key

    def test_every_worker_of_a_two_worker_pool_exits(self, tmp_path):
        # A worker forked second also inherits the first worker's
        # supervisor end; neither may keep the other's pipe open.
        _, pids = _run_killed_supervisor(tmp_path, n_workers=2)
        _assert_workers_exit(pids)


def _kill_worker_once(marker_path, config, trace, seed):
    """Worker-side job body: SIGKILL this worker on the first attempt."""
    from pathlib import Path

    from repro.sim.stats import simulate_and_measure

    marker = Path(marker_path)
    if not marker.exists():
        marker.write_text("died once")
        os.kill(os.getpid(), signal.SIGKILL)
    _, stats = simulate_and_measure(config, trace, seed=seed)
    return stats


def _plain_simulate(config, trace, seed):
    from repro.sim.stats import simulate_and_measure

    _, stats = simulate_and_measure(config, trace, seed=seed)
    return stats


class TestWorkerDeathMidJob:
    def test_sigkilled_worker_retries_and_journals_exactly_once(self, tmp_path):
        from repro.runtime.pool import EvaluationPool, Job

        journal = CheckpointJournal(tmp_path / "worker.jsonl")
        trace = _trace()
        marker = tmp_path / "died.marker"
        pool = EvaluationPool(PoolConfig(
            max_workers=2, timeout_s=120,
            retry=RetryPolicy(max_retries=2, backoff_base=0.01),
        ))
        jobs = [
            Job(key="victim", fn=_kill_worker_once,
                args=(str(marker), MachineConfig(), trace, 0)),
            Job(key="bystander", fn=_plain_simulate,
                args=(MachineConfig(), trace, 1)),
        ]

        def checkpoint(result):
            if result.ok:
                journal.put(result.key, result.value.to_dict())

        results = pool.run(jobs, on_result=checkpoint)
        assert results["victim"].ok and results["bystander"].ok
        assert results["victim"].crashes == 1
        assert pool.worker_restarts == 1

        # Exactly one journal line per job — the crashed attempt did not
        # checkpoint anything, the retry checkpointed once.
        reloaded = CheckpointJournal(journal.path)
        assert sorted(reloaded.keys()) == ["bystander", "victim"]
        lines = [ln for ln in journal.path.read_text().splitlines() if ln]
        assert len(lines) == 2

        # A resumed runtime replays both from the journal: zero simulations.
        resumed = EvaluationRuntime(journal=journal.path)
        out = resumed.evaluate_many([
            EvaluationRequest(key="victim", config=MachineConfig(),
                              trace=trace, seed=0),
            EvaluationRequest(key="bystander", config=MachineConfig(),
                              trace=trace, seed=1),
        ])
        assert resumed.counters.simulations == 0
        clean = EvaluationRuntime().evaluate_many([
            EvaluationRequest(key="victim", config=MachineConfig(),
                              trace=trace, seed=0),
            EvaluationRequest(key="bystander", config=MachineConfig(),
                              trace=trace, seed=1),
        ])
        for key in clean:
            assert out[key].to_dict() == clean[key].to_dict(), key
