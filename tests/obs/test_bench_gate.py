"""The batch bench gate's few-lane walk-step floor (``compare_benchmarks``)."""

import pytest

from repro.obs.bench import WALK_STEP_FLOOR, compare_benchmarks

BASELINE = {"kind": "batch_throughput", "speedup": 4.9, "accesses": 10_000}


def _record(walk_speedup=None) -> dict:
    record = {"kind": "batch_throughput", "speedup": 5.0, "accesses": 10_000,
              "identical": True}
    if walk_speedup is not None:
        record["walk_step"] = {"speedup": walk_speedup}
    return record


def test_floor_allows_a_batch_call_at_most_10_percent_slower():
    assert WALK_STEP_FLOOR == pytest.approx(1 / 1.1)


@pytest.mark.parametrize("walk_speedup,ok", [
    (1.02, True),
    (0.92, True),
    (0.85, False),   # batch call more than 10% slower than scalar
    (None, False),   # the row went missing: fail loudly
])
def test_walk_step_floor(walk_speedup, ok):
    passed, lines = compare_benchmarks(
        _record(walk_speedup), BASELINE, min_speedup=4.0,
    )
    assert passed is ok
    assert lines[-1] == ("PASS" if ok else "FAIL: speedup regressed below the gate")
    assert any(line.startswith("walk-step floor") for line in lines)


def test_other_kinds_have_no_walk_step_row():
    engine = {"kind": "engine_throughput", "speedup": 3.0, "accesses": 10_000,
              "identical": True}
    passed, lines = compare_benchmarks(engine, dict(engine))
    assert passed
    assert not any(line.startswith("walk-step floor") for line in lines)
