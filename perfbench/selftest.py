"""Self-test of the benchmark, at reduced size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it checks that

* an untraced and a traced run exit 0, verify their outputs, and print
  every end-to-end (``--trace 0``) or per-layer (``--trace 1``) metric,
  each with the unit that ``BENCHMARK.json`` gives it; no end-to-end
  metric reads 0, nor a per-layer one of a layer the workload runs, unless
  it is in ``MAY_BE_ZERO``;
* a run with a deliberately corrupted result reports ``correct: false``
  and at least one failed operation;

and that ``BENCHMARK.json`` declares exactly the metrics
``common.END_TO_END`` and ``layers.PER_LAYER`` name, with their units.
Finally it copies ``BENCHMARK.json`` and ``perfbench/`` alone into a
temporary directory and checks that a run there fails without printing a
result, since the program's sources are missing.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import BENCH_DIR, END_TO_END, ROOT, WORK_ROOT
from layers import PER_LAYER
from run import WORKLOADS

#: Per-layer metrics that may read 0 on a workload that runs their layer:
#: counts of events the inputs need not cause, and a signed overhead.
MAY_BE_ZERO = {
    "sim.engine.calls", "sim.batch.calls", "sim.batch.fallback_configs",
    "runtime.cache_hits", "evalcache.hit_ratio", "service.rejections",
    "explorer.dedup_hits", "lint.parse_reuse", "trace.overhead_pct",
}


def _run(args: "list[str]", cwd: Path = ROOT) -> "tuple[int, list[str]]":
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: "list[str]") -> dict:
    """The run's result line, or an empty failed result if there is none."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return result


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for trace, kind, expected in ((0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in declared[kind]]
        if listed != list(expected):
            failures.append(f"BENCHMARK.json {kind} differs from what the workloads "
                            f"print: {sorted(set(listed) ^ set(expected))}")
    units = dict(END_TO_END + PER_LAYER)
    names = {0: [name for name, _ in END_TO_END], 1: [name for name, _ in PER_LAYER]}
    for workload, module in WORKLOADS.items():
        before = len(failures)
        wl = importlib.import_module(module)
        own = set(wl.PER_LAYER) | {"ledger.unexplained_pct", "trace.overhead_pct"}
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--scale", "small"]
        for trace in (0, 1):
            code, lines = _run(base + ["--trace", str(trace)])
            result = _result(lines)
            metrics = result["metrics"]
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={trace}: not correct: {lines[-8:]}")
            if set(metrics) != set(names[trace]):
                failures.append(
                    f"{workload} trace={trace}: metrics differ from the declared set: "
                    f"missing {sorted(set(names[trace]) - set(metrics))}, "
                    f"extra {sorted(set(metrics) - set(names[trace]))}"
                )
            for name, metric in metrics.items():
                if metric["unit"] != units.get(name):
                    failures.append(f"{workload}: {name} unit {metric['unit']!r}, "
                                    f"declared {units.get(name)!r}")
                zero_ok = trace == 1 and (name not in own or name in MAY_BE_ZERO)
                if metric["value"] == 0 and not zero_ok:
                    failures.append(f"{workload} trace={trace}: {name} reads 0")
        code, lines = _run(base + ["--corrupt"])
        result = _result(lines)
        if code != 0 or result["correct"] or result["failed"] < 1:
            failures.append(f"{workload}: corrupted result not caught: {lines[-1]}")
        print(f"{workload}: {'ok' if len(failures) == before else 'FAILED'}")

    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(["--workload", "table1-sweep", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=Path(bare))
        if code == 0 or any(line.startswith("{") for line in lines):
            failures.append("a run without the program's sources did not fail cleanly")
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # a run's directory is still there

    for failure in failures:
        print("FAIL:", failure)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
