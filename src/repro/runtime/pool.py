"""Supervised parallel evaluation pool.

Design-space exploration and benchmark profiling spend hundreds of
independent ``simulate_and_measure`` evaluations; one hung or crashed
evaluation must not kill the run.  :class:`EvaluationPool` executes a batch
of picklable jobs across worker processes under supervision:

* **per-job timeouts** — each job is dispatched to exactly one worker over
  that worker's private pipe, so when the deadline passes the supervisor
  knows precisely which process to kill;
* **bounded retries with exponential backoff + jitter** — a failed attempt
  (exception, timeout, or crash) is requeued after
  ``base * factor**(failures-1) * (1 + jitter*u)`` seconds; after
  ``max_retries`` retries the job's last error becomes its result;
* **worker-crash recovery** — a worker that dies (killed, segfaulted,
  ``os._exit``) is detected, its job is charged a
  :class:`~repro.runtime.errors.WorkerCrashed` failure, and a fresh worker
  takes its slot.

``max_workers=0`` selects the *inline* mode: same retry/backoff semantics,
executed in-process with no pickling or process overhead (timeouts are not
enforceable inline and are ignored).  This is the default, so library code
can route every evaluation through the pool without forcing process
orchestration on small runs.
"""

from __future__ import annotations

import heapq
import random
import signal
import time
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing import get_context

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.errors import ConfigError, EvaluationTimeout, WorkerCrashed, is_retryable
from repro.util.rng import derive_seed
from repro.util.validation import check_int, check_non_negative

__all__ = ["RetryPolicy", "PoolConfig", "Job", "JobResult", "EvaluationPool"]

#: Sentinel job key marking a fire-and-forget worker setup message: the
#: worker runs the callable and sends no reply (so setup never occupies the
#: supervisor's result accounting).  Sent to every worker right after it
#: starts — including crash replacements — before any job can reach it
#: (the pipe is FIFO).
_SETUP_KEY = "__pool_worker_setup__"

#: The supervisor-side end of every worker pipe in this process.  A forked
#: worker inherits all of them, its own included; while any copy stays
#: open the worker's ``recv`` never sees EOF, so a worker whose supervisor
#: was SIGKILLed would live on forever.  Each worker closes them on start.
_SUPERVISOR_ENDS: "weakref.WeakSet" = weakref.WeakSet()  # repro: noqa[RACE002] -- fork-only by design: a spawned worker inherits no pipe ends, so its empty set is the right one


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter."""

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25

    def __post_init__(self) -> None:
        check_int("max_retries", self.max_retries, minimum=0)
        check_non_negative("backoff_base", self.backoff_base)
        if self.backoff_factor < 1.0:
            raise ConfigError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        check_non_negative("backoff_jitter", self.backoff_jitter)

    def delay(self, failures: int, rng: random.Random) -> float:
        """Backoff before the retry following failure number *failures*."""
        base = self.backoff_base * self.backoff_factor ** (failures - 1)
        return base * (1.0 + self.backoff_jitter * rng.random())


@dataclass(frozen=True)
class PoolConfig:
    """How a batch of jobs is executed and supervised."""

    #: Worker process count; 0 runs jobs inline in the calling process.
    max_workers: int = 0
    #: Per-attempt deadline in seconds (None disables; ignored inline).
    timeout_s: "float | None" = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Seed for the backoff-jitter streams (one derived stream per job key).
    seed: int = 0
    #: multiprocessing start method; None picks "fork" when available.
    start_method: "str | None" = None

    def __post_init__(self) -> None:
        check_int("max_workers", self.max_workers, minimum=0)
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be > 0, got {self.timeout_s}")


@dataclass(frozen=True)
class Job:
    """One unit of work: a picklable callable plus its arguments."""

    key: str
    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    #: When set, the pool passes ``_attempt=<n>`` (1-based) to *fn*, so
    #: stochastic stages (e.g. fault injection) draw fresh randomness per
    #: retry instead of failing identically forever.
    pass_attempt: bool = False


@dataclass
class JobResult:
    """Outcome of one job after supervision."""

    key: str
    value: object = None
    error: "BaseException | None" = None
    attempts: int = 0
    #: Total backoff delay scheduled between this job's attempts.
    waited_s: float = 0.0
    timeouts: int = 0
    crashes: int = 0

    @property
    def ok(self) -> bool:
        """Whether the job eventually produced a value."""
        return self.error is None


class _JobState:
    """Supervisor-side bookkeeping for one job."""

    __slots__ = ("job", "failures", "waited_s", "timeouts", "crashes", "last_error", "rng")

    def __init__(self, job: Job, rng: random.Random) -> None:
        self.job = job
        self.failures = 0
        self.waited_s = 0.0
        self.timeouts = 0
        self.crashes = 0
        self.last_error: "BaseException | None" = None
        self.rng = rng

    def attempt_kwargs(self) -> dict:
        kwargs = dict(self.job.kwargs)
        if self.job.pass_attempt:
            kwargs["_attempt"] = self.failures + 1
        return kwargs

    def result(self, value: object = None, *, error: "BaseException | None" = None) -> JobResult:
        return JobResult(
            key=self.job.key,
            value=value,
            error=error,
            attempts=self.failures + (1 if error is None else 0),
            waited_s=self.waited_s,
            timeouts=self.timeouts,
            crashes=self.crashes,
        )


def _worker_snapshot() -> "dict | None":
    """The worker's metric snapshot to ship with a result (None when off).

    Reset after snapshotting so each shipped payload carries exactly the
    metrics of one attempt; the parent merges them in arrival order, which
    is safe because snapshot merge is commutative (:mod:`repro.obs.metrics`).
    """
    if not obs_metrics.metrics_enabled():
        return None
    registry = obs_metrics.get_registry()
    if registry.is_empty():
        return None
    return registry.snapshot_and_reset()


def _worker_main(conn) -> None:
    """Worker loop: receive ``(key, fn, args, kwargs)``, send
    ``(kind, payload, metrics_snapshot)``."""
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; leave interrupt handling (and worker teardown) to the
    # supervisor rather than spraying one traceback per worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in list(_SUPERVISOR_ENDS):
        end.close()
    # A forked worker inherits the parent's accumulated registry; start
    # from the merge identity so shipped snapshots count each attempt once.
    if obs_metrics.metrics_enabled():
        obs_metrics.get_registry().reset()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if msg is None:
            return
        key, fn, args, kwargs = msg
        if key == _SETUP_KEY:
            # Fire-and-forget setup (e.g. trace-store registration); a
            # failure here surfaces later as job errors, which the
            # supervisor's normal retry path reports with taxonomy intact.
            try:
                fn(*args, **kwargs)
            except Exception:  # repro: noqa[ERR001] -- no reply channel for setup; dependent jobs fail loudly instead
                pass
            continue
        try:
            with obs_trace.span("pool.attempt", key=key):
                payload = ("ok", fn(*args, **kwargs), _worker_snapshot())
        except Exception as exc:  # repro: noqa[ERR001] -- designated transport boundary: the exception (taxonomy intact) is pickled to the supervisor, which re-classifies it
            payload = ("err", exc, _worker_snapshot())
        try:
            conn.send(payload)
        except Exception as exc:  # repro: noqa[ERR001] -- pickling failure of the payload itself; reported as an error result, nothing is swallowed
            # The value (or the exception) did not pickle; report that
            # instead of dying and looking like a crash.
            try:
                conn.send(("err", RuntimeError(f"result not transferable: {exc}"), None))  # repro: noqa[ERR002] -- crosses the process boundary before the supervisor re-raises; must stay a stdlib type that always unpickles
            except Exception:  # repro: noqa[ERR001] -- pipe gone mid-report; the supervisor's liveness sweep charges a WorkerCrashed
                return


class _Worker:
    """One supervised worker process with a private duplex pipe."""

    __slots__ = ("proc", "conn", "state", "deadline")

    def __init__(self, ctx, setup: "Sequence[tuple[Callable, tuple]]" = ()) -> None:
        self.conn, child = ctx.Pipe(duplex=True)
        _SUPERVISOR_ENDS.add(self.conn)
        self.proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()
        self.state: "_JobState | None" = None
        self.deadline: "float | None" = None
        for fn, args in setup:
            self.conn.send((_SETUP_KEY, fn, args, {}))

    def assign(self, state: _JobState, timeout_s: "float | None") -> None:
        self.conn.send(
            (state.job.key, state.job.fn, state.job.args, state.attempt_kwargs())
        )
        self.state = state
        self.deadline = (time.monotonic() + timeout_s) if timeout_s else None

    def release(self) -> "_JobState | None":
        state, self.state, self.deadline = self.state, None, None
        return state

    def stop(self, *, kill: bool = False) -> None:
        if kill:
            self.proc.kill()
        else:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=2.0)
        self.conn.close()


class EvaluationPool:
    """Run a batch of :class:`Job`\\ s under the configured supervision.

    Counters (``retries``, ``timeouts``, ``worker_restarts``) accumulate
    across :meth:`run` calls on the same pool instance, so a caller issuing
    several batches can report one totals line at the end.
    """

    def __init__(self, config: "PoolConfig | None" = None) -> None:
        self.config = config if config is not None else PoolConfig()
        self.retries = 0
        self.timeouts = 0
        self.worker_restarts = 0
        #: ``(fn, args)`` pairs sent to every worker as fire-and-forget
        #: setup messages right after it starts (crash replacements
        #: included).  Callers use this to make per-process state — e.g.
        #: the trace store — resident once per worker instead of once per
        #: job.  Only needed under ``spawn``; forked workers inherit the
        #: parent's process state (see :meth:`effective_start_method`).
        self.worker_setup: "list[tuple[Callable, tuple]]" = []

    # -- public API ---------------------------------------------------------
    def run(
        self,
        jobs: Sequence[Job],
        *,
        on_error: str = "raise",
        on_result: "Callable[[JobResult], None] | None" = None,
    ) -> dict[str, JobResult]:
        """Execute *jobs*; returns ``{key: JobResult}``.

        ``on_error="raise"`` re-raises the last error of the first job that
        exhausted its retries (after all workers shut down cleanly);
        ``on_error="keep"`` returns failed jobs with ``result.error`` set.
        ``on_result`` is invoked the moment each job reaches a terminal
        result (success or final failure) — callers use it to checkpoint
        completed work before the batch as a whole finishes.
        """
        if on_error not in ("raise", "keep"):
            raise ConfigError(f"on_error must be 'raise' or 'keep', got {on_error!r}")
        seen: set[str] = set()
        for job in jobs:
            if job.key in seen:
                raise ConfigError(f"duplicate job key {job.key!r}")
            seen.add(job.key)
        states = [
            _JobState(job, random.Random(derive_seed(self.config.seed, "backoff", job.key)))
            for job in jobs
        ]
        if self.config.max_workers <= 0:
            results = self._run_inline(states, on_result)
        else:
            results = self._run_supervised(states, on_result)
        if on_error == "raise":
            for state in states:  # deterministic order: first submitted first
                result = results[state.job.key]
                if result.error is not None:
                    raise result.error
        return results

    @staticmethod
    def _finish(
        results: dict[str, JobResult],
        result: JobResult,
        on_result: "Callable[[JobResult], None] | None",
    ) -> None:
        results[result.key] = result
        if obs_metrics.metrics_enabled():
            reg = obs_metrics.get_registry()
            reg.counter("pool.jobs_ok" if result.ok else "pool.jobs_failed").inc()
        if obs_trace.tracing_enabled():
            obs_trace.event(
                "pool.job", key=result.key, ok=result.ok,
                attempts=result.attempts, timeouts=result.timeouts,
                crashes=result.crashes, waited_s=round(result.waited_s, 6),
            )
        if on_result is not None:
            on_result(result)

    @staticmethod
    def _count_failure(error: BaseException) -> None:
        """Parent-side failure counters (worker snapshots die with crashes)."""
        if not obs_metrics.metrics_enabled():
            return
        reg = obs_metrics.get_registry()
        reg.counter("pool.failed_attempts").inc()
        if isinstance(error, EvaluationTimeout):
            reg.counter("pool.timeouts").inc()
        if isinstance(error, WorkerCrashed):
            reg.counter("pool.crashes").inc()

    # -- inline mode ---------------------------------------------------------
    def _run_inline(
        self,
        states: "list[_JobState]",
        on_result: "Callable[[JobResult], None] | None",
    ) -> dict[str, JobResult]:
        results: dict[str, JobResult] = {}
        policy = self.config.retry
        for state in states:
            while True:
                try:
                    with obs_trace.span(
                        "pool.attempt", key=state.job.key, attempt=state.failures + 1
                    ):
                        value = state.job.fn(*state.job.args, **state.attempt_kwargs())
                except Exception as exc:  # repro: noqa[ERR001] -- supervision boundary: the error becomes the job's typed result (or is re-raised by run()); KeyboardInterrupt still propagates
                    state.failures += 1
                    state.last_error = exc
                    self._count_failure(exc)
                    if not is_retryable(exc) or state.failures > policy.max_retries:
                        self._finish(results, state.result(error=exc), on_result)
                        break
                    self.retries += 1
                    if obs_metrics.metrics_enabled():
                        obs_metrics.get_registry().counter("pool.retries").inc()
                    delay = policy.delay(state.failures, state.rng)
                    state.waited_s += delay
                    time.sleep(delay)
                else:
                    self._finish(results, state.result(value), on_result)
                    break
        return results

    # -- supervised (multi-process) mode -------------------------------------
    def _start_method(self) -> str:
        if self.config.start_method is not None:
            return self.config.start_method
        try:
            get_context("fork")
            return "fork"
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return "spawn"

    def effective_start_method(self) -> "str | None":
        """The start method supervised workers will use (None when inline).

        Callers deciding whether to ship :attr:`worker_setup` payloads can
        skip them for ``fork`` (children inherit parent process state) and
        inline mode (jobs run in the registering process).
        """
        if self.config.max_workers <= 0:
            return None
        return self._start_method()

    def _fail_attempt(
        self,
        state: _JobState,
        error: BaseException,
        now: float,
        ready_heap: list,
        seq: "list[int]",
        results: dict[str, JobResult],
        on_result: "Callable[[JobResult], None] | None",
    ) -> None:
        """Charge one failed attempt; requeue with backoff or finalize.

        Non-retryable taxonomy errors (``ConfigError``, ``ContractViolation``
        — see :func:`repro.runtime.errors.is_retryable`) finalize on the
        first attempt: they are deterministic rejections, and retrying them
        would only delay surfacing the error with its class intact.
        """
        state.failures += 1
        state.last_error = error
        self._count_failure(error)
        if isinstance(error, EvaluationTimeout):
            state.timeouts += 1
            self.timeouts += 1
        if isinstance(error, WorkerCrashed):
            state.crashes += 1
        if not is_retryable(error) or state.failures > self.config.retry.max_retries:
            self._finish(results, state.result(error=error), on_result)
            return
        self.retries += 1
        if obs_metrics.metrics_enabled():
            obs_metrics.get_registry().counter("pool.retries").inc()
        delay = self.config.retry.delay(state.failures, state.rng)
        state.waited_s += delay
        seq[0] += 1
        heapq.heappush(ready_heap, (now + delay, seq[0], state))

    def _run_supervised(
        self,
        states: "list[_JobState]",
        on_result: "Callable[[JobResult], None] | None",
    ) -> dict[str, JobResult]:
        ctx = get_context(self._start_method())
        n_workers = min(self.config.max_workers, max(len(states), 1))
        setup = tuple(self.worker_setup)
        workers = [_Worker(ctx, setup) for _ in range(n_workers)]
        results: dict[str, JobResult] = {}
        ready_heap: list = []
        seq = [0]
        now = time.monotonic()
        for state in states:
            seq[0] += 1
            heapq.heappush(ready_heap, (now, seq[0], state))
        try:
            while len(results) < len(states):
                now = time.monotonic()
                # Dispatch every due job to an idle worker.
                for i, worker in enumerate(workers):
                    if worker.state is not None:
                        continue
                    if not ready_heap or ready_heap[0][0] > now:
                        break
                    _, _, state = heapq.heappop(ready_heap)
                    try:
                        worker.assign(state, self.config.timeout_s)
                    except (BrokenPipeError, OSError):
                        # Worker died between jobs; replace it and charge
                        # the attempt as a crash.
                        worker.stop(kill=True)
                        workers[i] = _Worker(ctx, setup)
                        self.worker_restarts += 1
                        self._fail_attempt(
                            state,
                            WorkerCrashed(
                                f"worker unavailable for {state.job.key!r}"
                            ),
                            now, ready_heap, seq, results, on_result,
                        )

                # How long we may block: until the next backoff expiry or
                # the next deadline, capped so crash detection stays snappy.
                wait_s = 0.05
                if ready_heap:
                    wait_s = min(wait_s, max(ready_heap[0][0] - now, 0.0))
                for worker in workers:
                    if worker.deadline is not None:
                        wait_s = min(wait_s, max(worker.deadline - now, 0.0))

                busy = [w for w in workers if w.state is not None]
                ready_conns = (
                    mp_connection.wait([w.conn for w in busy], timeout=wait_s)
                    if busy
                    else []
                )
                if not busy and wait_s > 0:
                    time.sleep(wait_s)

                now = time.monotonic()
                for worker in busy:
                    if worker.conn in ready_conns:
                        try:
                            kind, payload, snapshot = worker.conn.recv()
                        except (EOFError, OSError):
                            continue  # pipe died; the liveness sweep handles it
                        if snapshot is not None and obs_metrics.metrics_enabled():
                            # Per-attempt worker metrics fold into the
                            # parent registry; merge is commutative, so
                            # arrival order across workers cannot matter.
                            obs_metrics.get_registry().merge(snapshot)
                        state = worker.release()
                        if kind == "ok":
                            self._finish(results, state.result(payload), on_result)
                        else:
                            self._fail_attempt(
                                state, payload, now, ready_heap, seq,
                                results, on_result,
                            )

                # Liveness + deadline sweep; replace any worker we lose.
                for i, worker in enumerate(workers):
                    if worker.state is None:
                        continue
                    if not worker.proc.is_alive():
                        state = worker.release()
                        exitcode = worker.proc.exitcode
                        worker.stop(kill=True)
                        workers[i] = _Worker(ctx, setup)
                        self.worker_restarts += 1
                        self._fail_attempt(
                            state,
                            WorkerCrashed(
                                f"worker died (exit code {exitcode}) while "
                                f"running {state.job.key!r}"
                            ),
                            now, ready_heap, seq, results, on_result,
                        )
                    elif worker.deadline is not None and now >= worker.deadline:
                        state = worker.release()
                        worker.stop(kill=True)
                        workers[i] = _Worker(ctx, setup)
                        self.worker_restarts += 1
                        self._fail_attempt(
                            state,
                            EvaluationTimeout(
                                f"job {state.job.key!r} exceeded "
                                f"{self.config.timeout_s}s (attempt "
                                f"{state.failures + 1})"
                            ),
                            now, ready_heap, seq, results, on_result,
                        )
        finally:
            for worker in workers:
                worker.stop(kill=worker.state is not None)
        return results
