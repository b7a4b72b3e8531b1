"""Paired reference runs: each part of the work, again on a pinned program.

Host speed drifts on the 2-vCPU VMs this benchmark was tuned on: the same
sweep pass took 1.7 s to 3.3 s within three minutes, and the median of a
20-second run moved by 35% between two sets of runs half an hour apart,
with CPU time equal to wall time and no steal.  A small calibration loop
does not track that drift; the same work does.  So the timed workloads
(``table1-sweep``, ``fig3-walk``, ``lint-program``) run every part of a
unit of work twice in a row: once with the program under test, and once in
a child process with the pinned ``src/repro`` of ``corpus.tar.gz`` (commit
afc132c), alternating which goes first.  Drift moves both alike, and
each unit yields the ratio of the two times.  ``service-mixed`` alternates
sessions between a server of each program instead (``wl_service``).

A workload reports its time as the median ratio times ``NOMINAL_S``, the
pinned unit's median time on the VM above: seconds (or a rate) at a fixed
reference host speed.  When the program is as fast as the pinned one the
figure reads ``NOMINAL_S``, on any host.  ``setup_s`` of these workloads
is paired the same way: set-up probes of the two programs alternate, and
the median ratio is scaled by ``NOMINAL_SETUP_S``.  The raw times are
printed too.

The child is started as::

    python3 perfbench/reference.py --workload W --seed N --scale S --workdir D

with only the pinned sources on ``PYTHONPATH``.  It runs the workload's
set-up, prints ``ready``, then for each line ``k`` on standard input runs
part ``k`` and prints its seconds; it exits at end of input.
"""

from __future__ import annotations

import argparse
import importlib
import subprocess
import sys
import tarfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import BENCH_DIR, ROOT, BenchError, Units, child_env, median, timed_units

CORPUS = BENCH_DIR / "corpus.tar.gz"


@dataclass
class Paired:
    """Per-unit times of the program under test and of the pinned one."""

    units: Units
    pinned: "list[float]" = field(default_factory=list)

    def ratio(self) -> float:
        return median(a / b for a, b in zip(self.units.plain, self.pinned))

    def note(self, what: str) -> str:
        live, pinned = self.units.plain, self.pinned
        return (f"{len(live)} {what}, each paired part by part with the pinned "
                f"program: median time {median(live):.3f} s (min {min(live):.3f}, "
                f"max {max(live):.3f}), pinned {median(pinned):.3f} s, "
                f"median ratio {self.ratio():.4f}")


def extract_pinned(workdir: Path) -> Path:
    """The pinned program's sources, extracted under *workdir* once."""
    pinned = workdir / "pinned"
    if not pinned.exists():
        with tarfile.open(CORPUS) as archive:
            members = [m for m in archive.getmembers()
                       if m.name.startswith("src/repro/")]
            archive.extractall(pinned, members=members, filter="data")
    return pinned / "src"


class Reference:
    """The child process that runs parts of the work on the pinned program."""

    def __init__(self, workload: str, seed: int, scale: str, workdir: Path) -> None:
        self.src = extract_pinned(workdir)
        child_work = workdir / "pinned-work"
        child_work.mkdir()
        self.stderr_path = workdir / "pinned.stderr"
        self._stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "reference.py"), "--workload", workload,
             "--seed", str(seed), "--scale", scale, "--workdir", str(child_work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True, env=child_env(self.src),
            cwd=ROOT,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise BenchError(f"reference child did not start: {self._tail()}")

    def _tail(self) -> str:
        self._stderr.flush()
        return self.stderr_path.read_text()[-500:]

    def run(self, k: int) -> float:
        self.proc.stdin.write(f"{k}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"reference child stopped: {self._tail()}")
        return float(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def measure_paired(ctx: dict, seconds: float, wl, *,
                   min_reps: int = 1) -> "tuple[Paired, list]":
    """Run units of ``wl.part(ctx, k)`` for all parts while another fits.

    Part ``k`` of unit ``rep`` runs on the program under test first when
    ``rep + k`` is even, on the pinned one first otherwise.  Returns the
    paired times and, per unit, the list of the parts' results.
    """
    reference: Reference = ctx["reference"]
    paired = Paired(Units(start=time.perf_counter()))
    results: "list[list]" = []
    done: "list[float]" = []
    rep = 0
    while rep < min_reps or (
        time.perf_counter() - paired.units.start + median(done) <= seconds
    ):
        t_unit = time.perf_counter()
        live = pinned = 0.0
        parts = []
        for k in range(wl.parts(ctx)):
            if (rep + k) % 2:
                pinned += reference.run(k)
            t0 = time.perf_counter()
            parts.append(wl.part(ctx, k))
            live += time.perf_counter() - t0
            if not (rep + k) % 2:
                pinned += reference.run(k)
        paired.units.plain.append(live)
        paired.pinned.append(pinned)
        results.append(parts)
        done.append(time.perf_counter() - t_unit)
        rep += 1
    paired.units.end = time.perf_counter()
    return paired, results


def measure_units(ctx: dict, seconds: float, wl, ledger=None, *, min_reps: int = 1) -> dict:
    """Measure units of all ``wl.part`` calls for about *seconds*.

    Untraced, every part is paired with the pinned program
    (``measure_paired``).  Traced, units alternate between plain and traced
    as ``timed_units`` runs them, and the reference is not used.  Returns
    the phase dict the workloads build on: ``units``, ``results`` (per unit,
    the parts' results), ``traced_wall`` and, untraced, ``paired``.
    """
    if ledger is None:
        paired, results = measure_paired(ctx, seconds, wl, min_reps=min_reps)
        return {"units": paired.units, "paired": paired, "results": results,
                "traced_wall": 0.0}
    results = []

    def one_unit(rep: int, ledger) -> None:
        results.append([wl.part(ctx, k, ledger, tag=f"unit{rep}:{k}")
                        for k in range(wl.parts(ctx))])

    units = timed_units(seconds, one_unit, ledger, wl.install, min_reps=min_reps)
    return {"units": units, "results": results, "traced_wall": sum(units.traced)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    import repro

    if ROOT / "src" in Path(repro.__file__).resolve().parents:
        print("reference child imported the program under test", file=sys.stderr)
        return 2
    from run import WORKLOADS

    wl = importlib.import_module(WORKLOADS[args.workload])
    ctx = wl.setup(args.seed, args.scale, Path(args.workdir))
    print("ready", flush=True)
    for line in sys.stdin:
        t0 = time.perf_counter()
        wl.part(ctx, int(line))
        print(repr(time.perf_counter() - t0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
