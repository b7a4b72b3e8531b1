"""Run ``repro serve`` for the ``service-mixed`` workload.

Usage::

    python3 perfbench/server_child.py --report PATH [--trace 1] [--src DIR] -- <serve args>

With ``--trace 1`` the same layer wrappers the benchmark process uses are
installed here before the server starts.  On exit (SIGTERM drains the
server) the child writes its peak RSS and, when traced, its span ledger to
``--report`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import SRC, peak_rss_mb, require_sources


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=SRC,
                        help="the program's sources (the pinned copy for the reference)")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]
    require_sources(args.src)
    ledger = None
    if args.trace:
        import layers
        from ledger import Ledger

        ledger = Ledger()
        layers.install_sim(ledger)
        layers.install_runtime(ledger)
        layers.install_service(ledger)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    report = {
        "code": code,
        "peak_rss_mb": peak_rss_mb(),
        "ledger": ledger.export() if ledger is not None else None,
    }
    Path(args.report).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
