"""Shared plumbing for the benchmark workloads: paths, results, set-up timing."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working space for one run, inside the checkout the benchmark runs from.
WORK_ROOT = ROOT / ".perfbench_work"

#: End-to-end metrics, name and unit.  Every workload prints all of them
#: with ``--trace 0``; what an operation and a request are depends on the
#: workload (see ``run.py``).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
)

#: Set-up is repeated this many times per run (one in the measuring
#: process, the rest in fresh child processes) and reported as the median.
SETUP_SAMPLES = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed child)."""


def require_sources(src: Path = SRC) -> None:
    """Put the program's sources on ``sys.path``, or fail before measuring."""
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def child_env(src: Path = SRC) -> "dict[str, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") and src == SRC else ""
    )
    return env


def make_workdir() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run's directory is still there


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj: object) -> str:
    """Stable content hash of a JSON-serialisable object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def probe_setup(workload: str, seed: int, scale: str, samples: int,
                src: Path = SRC) -> "list[float]":
    """Time the workload's set-up in *samples* fresh child processes.

    Each child imports the program from *src* and builds the workload's
    inputs, then prints the seconds that took (interpreter start-up
    excluded).
    """
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--scale", scale, "--setup-only", "--src", str(src)],
            capture_output=True, text=True, env=child_env(src), timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit)
    metrics: "dict[str, tuple[float, str]]" = field(default_factory=dict)
    #: Human-readable lines printed before the result line.
    notes: "list[str]" = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> None:
        """Count one verified operation; note it when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                self.notes.append(f"verification failed: {what}")


@dataclass
class Units:
    """Timings of the units of work one measurement ran."""

    plain: "list[float]" = field(default_factory=list)
    traced: "list[float]" = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


def timed_units(seconds: float, body, ledger=None, install=None, *,
                min_reps: int = 1) -> Units:
    """Call ``body(rep, ledger_or_None)`` while another unit fits in *seconds*.

    A unit is started only while the elapsed time plus the median unit so
    far stays within *seconds* (after *min_reps* units of each kind), so a
    run measures for about *seconds* and never overshoots by a whole unit.

    Without a ledger every unit is plain.  With one, units alternate: even
    units run plain, odd units run with ``install(ledger)``'s wrappers in
    place, so traced and untraced units share the same stretch of host time
    and their gap is the tracing overhead rather than host drift.
    """
    units = Units(start=time.perf_counter())
    per_kind = 2 if ledger is not None else 1
    rep = 0
    done: "list[float]" = []
    while rep < min_reps * per_kind or (
        time.perf_counter() - units.start + median(done) <= seconds
    ):
        tracing = ledger is not None and rep % 2 == 1
        if tracing:
            install(ledger)
        try:
            t0 = time.perf_counter()
            body(rep, ledger if tracing else None)
            elapsed = time.perf_counter() - t0
        finally:
            if tracing:
                ledger.restore()
        (units.traced if tracing else units.plain).append(elapsed)
        done.append(elapsed)
        rep += 1
    units.end = time.perf_counter()
    return units
