"""Repository benchmark: four workloads that drive ``repro`` through its public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1-sweep --seed 1 --seconds 20 --trace 0

Workloads (see each ``wl_*.py`` for why it was chosen):

* ``table1-sweep``  - 64-point six-knob Table I grid, batch kernel (wl_sweep)
* ``fig3-walk``     - Fig. 3 greedy walks, 4-5 lanes per kernel call (wl_walk)
* ``service-mixed`` - ``repro serve`` child under two closed-loop clients (wl_service)
* ``lint-program``  - both lint tiers over a pinned ``src/repro`` snapshot (wl_lint)

``--trace 0`` prints the end-to-end metrics (``common.END_TO_END``), the
same on every workload: ``setup_s``, ``peak_rss_mb``, ``throughput_per_s``
(design points swept, walks, jobs or files linted per second) and
``latency_p50_ms`` (the median time of one request: a pass of the grid over
three profiles, a set of three walks, one job from submit to its terminal
state, a lint pass over three slices).  The timed parts
of ``table1-sweep``, ``fig3-walk`` and ``lint-program`` are each paired with
the same part on a pinned copy of the program, so that host-speed drift
cancels (see ``reference.py``).  ``--trace 1``
alternates untraced units of work with units run under span wrappers
installed around each layer's public functions (service-mixed: an untraced
server session, then a traced one), and prints the per-layer
ledger, how much of the traced wall time the named layers' self times leave
unexplained, and the tracing overhead (traced vs untraced time per unit).
It prints every per-layer metric (``layers.PER_LAYER``); those of layers
the workload does not run read 0.

Every run checks the program's outputs; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--scale small`` and ``--corrupt`` exist for the self-test
(``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

from common import (
    END_TO_END,
    SETUP_SAMPLES,
    SRC,
    BenchError,
    Outcome,
    make_workdir,
    median,
    peak_rss_mb,
    probe_setup,
    remove_workdir,
    require_sources,
)

WORKLOADS = {
    "table1-sweep": "wl_sweep",
    "fig3-walk": "wl_walk",
    "service-mixed": "wl_service",
    "lint-program": "wl_lint",
}


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="input size; 'small' is for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one result before verification "
                             "(the self-test checks that it is caught)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="the program's sources (set-up probes of the "
                             "pinned program use another copy)")
    return parser.parse_args(argv)


def run(args: argparse.Namespace, wl) -> Outcome:
    import layers
    from ledger import Ledger
    from reference import Reference

    out = Outcome()
    workdir = make_workdir()
    ctx = None
    try:
        t0 = time.perf_counter()
        ctx = wl.setup(args.seed, args.scale, workdir)
        # A workload may time only part of its set-up (see wl_service).
        setup_s = ctx.get("setup_s", time.perf_counter() - t0)
        ledger = Ledger() if args.trace else None
        if ledger is None and hasattr(wl, "part"):
            ctx["reference"] = Reference(args.workload, args.seed, args.scale, workdir)
        phase = wl.measure(ctx, args.seconds, ledger)
        # High-water mark of the measured work, before verification runs; a
        # workload whose program runs in another process reports that one's.
        rss_mb = ctx.get("peak_rss_mb") or peak_rss_mb()
        wl.verify(ctx, phase, out, args.corrupt)
        units = phase["units"]
        if ledger is None:
            if "reference" in ctx:
                samples, pinned = _paired_setups(args, setup_s, ctx["reference"].src)
            else:
                samples, pinned = wl.paired_setups(ctx, setup_s)
            ratio = median(a / b for a, b in zip(samples, pinned))
            out.put("setup_s", ratio * wl.NOMINAL_SETUP_S, "s")
            out.put("peak_rss_mb", rss_mb, "MiB")
            out.notes.append(
                "set-up samples (s): " + ", ".join(f"{s:.3f}" for s in samples)
                + "; pinned: " + ", ".join(f"{s:.3f}" for s in pinned)
                + f"; median ratio {ratio:.4f}"
            )
            wl.end_to_end(ctx, phase, out)
            _check_complete(out, END_TO_END, ())
        else:
            wl.per_layer(ctx, phase, ledger, out)
            per_layer, unexplained = layers.coverage(
                ledger, units.start, units.end, phase["traced_wall"]
            )
            overhead = 100.0 * (median(units.traced) / median(units.plain) - 1.0)
            out.put("ledger.unexplained_pct", unexplained, "%")
            out.put("trace.overhead_pct", overhead, "%")
            out.notes.extend(layers.format_ledger(
                per_layer, phase["traced_wall"], unexplained, overhead,
                list(out.metrics),
            ))
            idle = _check_complete(out, layers.PER_LAYER, wl.PER_LAYER)
            out.notes.append(f"layers this workload does not run, reported as 0: "
                             f"{', '.join(idle) or 'none'}")
            out.notes.append(phase.get(
                "overhead_note",
                f"overhead samples: {len(units.plain)} untraced and "
                f"{len(units.traced)} traced units, interleaved",
            ))
    finally:
        if ctx is not None and "reference" in ctx:
            ctx["reference"].close()
        if ctx is not None and hasattr(wl, "close"):
            wl.close(ctx)
        remove_workdir(workdir)
    return out


def _check_complete(out: Outcome, declared, own) -> "list[str]":
    """Put *out*'s metrics in the *declared* ``(name, unit)`` order.

    A declared metric the run did not print reads 0 if it belongs to a
    layer the workload does not run (it is not in *own*); those names are
    returned.  An empty *own* means the workload measures every declared
    metric.  A missing metric the workload measures, or an undeclared one,
    is an error.
    """
    extra = set(out.metrics) - {name for name, _ in declared}
    if extra:
        raise BenchError(f"undeclared metrics: {sorted(extra)}")
    idle = []
    for name, unit in declared:
        if name in out.metrics:
            continue
        if name in own or not own:
            raise BenchError(f"{name} was not measured")
        out.put(name, 0.0, unit)
        idle.append(name)
    out.metrics = {name: out.metrics[name] for name, _ in declared}
    return idle


def _paired_setups(args: argparse.Namespace, first: float,
                   pinned_src: Path) -> "tuple[list[float], list[float]]":
    """Set-up times of the program under test (*first*, then fresh child
    processes) and of the pinned program, alternating."""
    live, pinned = [first], []
    while len(pinned) < SETUP_SAMPLES:
        pinned += probe_setup(args.workload, args.seed, args.scale, 1, pinned_src)
        if len(live) < SETUP_SAMPLES:
            live += probe_setup(args.workload, args.seed, args.scale, 1)
    return live, pinned


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    try:
        require_sources(args.src)
        wl = importlib.import_module(WORKLOADS[args.workload])
        if args.setup_only:
            workdir = make_workdir()
            try:
                t0 = time.perf_counter()
                ctx = wl.setup(args.seed, args.scale, workdir)
                elapsed = time.perf_counter() - t0
                if hasattr(wl, "close"):
                    wl.close(ctx)
            finally:
                remove_workdir(workdir)
            print(f"{elapsed!r}")
            return 0
        out = run(args, wl)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in out.notes:
        print(line)
    result = {
        "correct": out.attempted >= 1 and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
