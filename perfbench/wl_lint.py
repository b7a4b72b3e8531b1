"""``lint-program``: ``repro lint --program`` over a pinned snapshot of ``src/repro``.

A pass lints three slices of the snapshot (``SLICES``), each with both
tiers sharing one ``ASTCache``, as the CLI runs them; the two simulator
kernels and the ``lint`` package are left out so that a run holds several
passes.  The input is ``corpus.tar.gz``: ``src/repro``, ``lint-baseline.json`` and
``tests/lint/fixtures`` as of one fixed commit.  It is pinned because every
change edits the live tree, and a growing input would read as a slower
linter.  No other workload touches the lint layers.  Untraced, each slice
is paired with the pinned program linting it (``reference``).
``latency_p50_ms`` is the median time ratio of a pass times ``NOMINAL_S``,
and ``throughput_per_s`` is the files of a pass over that time.

The pinned ``src/repro`` lints clean, so its expected result is "no
findings" plus the summary counts.  That alone would not catch a linter
that stops finding anything, so each run also lints the pinned seeded
fixtures (untimed) and compares their finding fingerprints with the
expected set in ``expected_lint.json``.  The corpus does not depend on
``--seed``.

The same archive is the pinned program ``reference`` runs.  To re-pin,
rebuild the archive from the chosen commit, regenerate the expected file
and re-measure every workload's ``NOMINAL_S``::

    git archive <commit> src/repro lint-baseline.json tests/lint/fixtures \\
        | gzip -n -9 > perfbench/corpus.tar.gz
"""

from __future__ import annotations

import json
import sys
import tarfile
from pathlib import Path

import layers
import reference
from common import BENCH_DIR, Outcome

CORPUS = BENCH_DIR / "corpus.tar.gz"
EXPECTED = BENCH_DIR / "expected_lint.json"
#: The slices of ``src/repro`` a pass lints, each with both tiers and its
#: own AST cache, so the pairing with the pinned program (``reference``)
#: alternates at under a second.
SLICES = {
    "full": (
        ("sim", "core", "analysis"),
        ("workloads", "reconfig", "runtime", "sched"),
        ("service", "obs", "util", "__init__.py", "__main__.py", "cli.py"),
    ),
    "small": (("util",), ("sched",)),
}
#: Files taken out of the sliced directories so that a run holds at least
#: three paired passes: the two simulator kernels take about 9 s of value
#: analysis between them.  The ``lint`` package (about 1.2 s) is in no
#: slice for the same reason.
LEFT_OUT = ("sim/engine.py", "sim/batch.py")
#: Median time of one pass on the pinned program (see ``reference``).
NOMINAL_S = 2.3
#: Median set-up time of the pinned program, for ``setup_s``.
NOMINAL_SETUP_S = 1.1
#: Per-layer metrics this workload measures (besides the ledger's own two).
PER_LAYER = (
    "lint.file_tier_s", "lint.program.build_s", "lint.program.callgraph_s",
    "lint.program.dataflow_s", "lint.program.locks_s", "lint.program.values_s",
    "lint.program.rules_s", "lint.parses", "lint.parse_reuse",
)


def setup(seed: int, scale: str, workdir: Path) -> dict:
    import repro.lint  # noqa: F401  (import cost belongs to set-up)
    import repro.lint.program  # noqa: F401

    root = workdir / "corpus"
    with tarfile.open(CORPUS) as archive:
        archive.extractall(root, filter="data")
    return {"root": root, "scale": scale,
            "slices": [_expand(root / "src" / "repro", entries)
                       for entries in SLICES[scale]],
            "fixtures": root / "tests" / "lint" / "fixtures"}


def _expand(package: Path, entries) -> "list[Path]":
    """The paths of one slice, with ``LEFT_OUT`` files taken out of directories."""
    paths = []
    for entry in entries:
        path = package / entry
        left_out = {package / name for name in LEFT_OUT}
        if path.is_dir() and any(p.parent == path for p in left_out):
            paths.extend(sorted(set(path.glob("*.py")) - left_out))
        else:
            paths.append(path)
    return paths


def _fingerprints(root: Path, tier: str, violations) -> "list[list]":
    return sorted(
        [tier, v.rule, Path(v.path).resolve().relative_to(root).as_posix(),
         v.line, v.message]
        for v in violations
    )


def lint_once(ctx: dict, targets: "list[Path]", ledger=None) -> dict:
    """Both tiers over *targets* with one AST cache, as ``repro lint --program``."""
    from repro.lint import ASTCache, run_lint
    from repro.lint.program import load_baseline, run_program_lint

    root = ctx["root"]
    cache = ASTCache()
    baseline = load_baseline(root / "lint-baseline.json")
    if ledger is None:
        files = run_lint(targets, cache=cache)
        program = run_program_lint(targets, cache=cache, baseline=baseline)
    else:
        with ledger.span("lint.file_tier"):
            files = run_lint(targets, cache=cache)
        with ledger.span("lint.program"):
            program = run_program_lint(targets, cache=cache, baseline=baseline)
    return {
        "findings": (
            _fingerprints(root, "file", files.violations)
            + _fingerprints(root, "program", program.violations)
            + _fingerprints(root, "baselined", program.baselined)
        ),
        "summary": {
            "files_checked": [files.files_checked, program.files_checked],
            "suppressed_justified": [files.suppressed_justified,
                                     program.suppressed_justified],
            "parses": [files.parses, program.parses],
            "parse_reuses": [files.parse_reuses, program.parse_reuses],
        },
    }


def parts(ctx: dict) -> int:
    return len(ctx["slices"])


def part(ctx: dict, k: int, ledger=None, tag: str = "") -> dict:
    """Lint slice *k*."""
    return lint_once(ctx, ctx["slices"][k], ledger)


def measure(ctx: dict, seconds: float, ledger=None) -> dict:
    """Lint passes (one ``part`` per slice) for about *seconds*."""
    return reference.measure_units(ctx, seconds, sys.modules[__name__], ledger,
                                   min_reps=3)


def verify(ctx: dict, phase: dict, out: Outcome, corrupt: bool) -> None:
    """Each slice's result and the fixture fingerprints equal the expected ones."""
    expected = json.loads(EXPECTED.read_text())
    fixtures = lint_once(ctx, [ctx["fixtures"]])["findings"]
    if corrupt:
        phase["results"][0][0]["findings"].append(
            ["program", "VAL001", "src/repro/sim/engine.py", 1, "corrupted"]
        )
    for rep, unit in enumerate(phase["results"]):
        out.check(unit == expected["snapshot"][ctx["scale"]], f"snapshot pass {rep}")
    out.check(fixtures == expected["fixtures"], "seeded fixture findings")


def end_to_end(ctx: dict, phase: dict, out: Outcome) -> None:
    paired = phase["paired"]
    pass_s = paired.ratio() * NOMINAL_S
    files = sum(result["summary"]["files_checked"][1] for result in phase["results"][0])
    out.put("throughput_per_s", files / pass_s, "1/s")
    out.put("latency_p50_ms", 1000.0 * pass_s, "ms")
    out.notes.append("lint: " + paired.note(f"passes over {files} files"))


def install(ledger) -> None:
    layers.install_lint(ledger)


def per_layer(ctx: dict, phase: dict, ledger, out: Outcome) -> None:
    """Per-phase lint times per traced pass."""
    units = len(phase["units"].traced)
    selfs = ledger.self_times()

    def total(name: str) -> float:
        return sum(ledger.durations(name)) / units

    out.put("lint.file_tier_s", total("lint.file_tier"), "s")
    for phase_name in ("build", "callgraph", "dataflow", "locks", "values"):
        out.put(f"lint.program.{phase_name}_s", total(f"lint.program.{phase_name}"), "s")
    out.put("lint.program.rules_s", selfs.get("lint.program.rule", 0.0) / units, "s")
    summaries = [result["summary"] for result in phase["results"][0]]
    out.put("lint.parses", sum(sum(s["parses"]) for s in summaries), "count")
    out.put("lint.parse_reuse", sum(sum(s["parse_reuses"]) for s in summaries), "count")
