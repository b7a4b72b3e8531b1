"""Few-lane dispatch of the batch engine, and the CPI_exe memo.

:meth:`BatchHierarchySimulator.run` steps batches below
``_MIN_VECTOR_LANES`` lanes on the scalar fast loop and larger ones on the
vectorized kernel.  Which path ran must never show: results, warm state
carried across calls, spans and ``sim.*`` counters are the kernel's.

:func:`simulate_and_measure_batch` runs the perfect-L1 (CPI_exe) pass once
per distinct :func:`perfect_run_key`, and the Fig. 3 backend carries those
values across its steps.  Configs that share a key must share CPI_exe, and
memoized measurements must equal per-config scalar ones field for field.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim import DEFAULT_MACHINE, HierarchySimulator
from repro.sim import batch as batch_mod
from repro.sim.batch import _MIN_VECTOR_LANES, BatchHierarchySimulator
from repro.sim.stats import (
    perfect_run_key,
    simulate_and_measure,
    simulate_and_measure_batch,
)
from repro.workloads.spec import benchmark_names, get_benchmark
from tests.sim.test_engine_batch_properties import (
    _assert_same,
    random_machine,
    random_trace,
)


def _grid(**knobs) -> list:
    """The cross-product of *knobs* over the default machine, in order."""
    return [
        DEFAULT_MACHINE.with_knobs(name=f"g{i}", **dict(zip(knobs, values)))
        for i, values in enumerate(itertools.product(*knobs.values()))
    ]


#: A heterogeneous lane pool: every six-knob mix plus an undersized L1, so
#: lanes disagree on geometry as well as on knobs.
LANE_POOL = _grid(
    issue_width=(4, 8), iw_size=(32, 128), rob_size=(32, 128),
    l1_ports=(1, 4), mshr_count=(4, 16),
)
LANE_POOL[5] = DEFAULT_MACHINE.with_knobs(l1_size_bytes=16 * 1024, name="L1-16KB")


@pytest.fixture(autouse=True)
def _obs_off():
    yield
    obs_trace.configure_tracing(None)
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.get_registry().reset()


class TestDispatch:
    @pytest.mark.parametrize("lanes", [1, _MIN_VECTOR_LANES - 1, _MIN_VECTOR_LANES])
    @pytest.mark.parametrize("perfect", [False, True])
    def test_run_equals_kernel_with_warm_carry(self, lanes, perfect):
        trace = get_benchmark("429.mcf").trace(600, seed=2)
        configs = LANE_POOL[:lanes]
        dispatched = BatchHierarchySimulator(configs, seed=0)
        kernel = BatchHierarchySimulator(configs, seed=0)
        dispatched.warm_caches(trace)
        kernel.warm_caches(trace)
        for round_no in range(2):
            got = dispatched.run(trace, perfect=perfect)
            want = kernel._run_kernel(trace, perfect=perfect)
            for idx, (res_got, res_want) in enumerate(zip(got, want)):
                _assert_same(res_got, res_want,
                             lane=f"round {round_no}, lane {idx}")

    @pytest.mark.parametrize("lanes", [1, _MIN_VECTOR_LANES - 1, _MIN_VECTOR_LANES])
    def test_run_picks_kernel_only_at_the_crossover(self, lanes, monkeypatch):
        calls = []
        original = BatchHierarchySimulator._run_kernel

        def spy(self, *args, **kwargs):
            calls.append(self.n_lanes)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BatchHierarchySimulator, "_run_kernel", spy)
        trace = get_benchmark("410.bwaves").trace(100, seed=1)
        BatchHierarchySimulator(LANE_POOL[:lanes], seed=0).run(trace)
        assert calls == ([lanes] if lanes >= _MIN_VECTOR_LANES else [])

    def test_run_after_a_kernel_call_on_few_lanes_is_refused(self):
        # A direct kernel call moves a few-lane simulator's L1 state into
        # the kernel's arrays; the scalar lanes must not run on stale state.
        trace = get_benchmark("403.gcc").trace(100, seed=4)
        sim = BatchHierarchySimulator(LANE_POOL[:4], seed=0)
        sim.run(trace)
        sim._run_kernel(trace)
        with pytest.raises(RuntimeError, match="_run_kernel"):
            sim.run(trace)

    @pytest.mark.parametrize("lanes", [4, _MIN_VECTOR_LANES])
    def test_one_batch_span_per_call(self, lanes, tmp_path):
        trace = get_benchmark("410.bwaves").trace(200, seed=1)
        path = tmp_path / "trace.jsonl"
        obs_trace.configure_tracing(path)
        sim = BatchHierarchySimulator(LANE_POOL[:lanes], seed=0)
        sim.run(trace, perfect=True)
        sim.run(trace)
        obs_trace.configure_tracing(None)
        names = [r.get("name") for r in obs_trace.read_trace(path)]
        assert names.count("sim.run_batch") == 2
        assert "sim.run" not in names

    def test_counters_match_kernel_path(self, monkeypatch):
        trace = get_benchmark("429.mcf").trace(400, seed=5)
        configs = LANE_POOL[:4]
        registry = obs_metrics.get_registry()
        obs_metrics.set_metrics_enabled(True)

        def snapshot() -> dict:
            registry.reset()
            sim = BatchHierarchySimulator(configs, seed=0)
            sim.warm_caches(trace)
            sim.run(trace, perfect=True)
            sim.run(trace)
            return registry.snapshot()

        scalar_lanes = snapshot()
        monkeypatch.setattr(batch_mod, "_MIN_VECTOR_LANES", 1)
        kernel = snapshot()
        assert scalar_lanes == kernel
        assert scalar_lanes["counters"]["sim.runs"] == 2 * len(configs)


class TestPerfectRunKey:
    @given(random_trace(), random_machine(name="a"), random_machine(name="b"),
           st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=30, deadline=None)
    def test_equal_key_means_equal_perfect_run(self, trace, a, b, hit_time):
        # Give b the core knobs and L1 hit time of a; everything else (L1
        # ports, MSHRs, L2 banks) stays independently drawn.
        a = dataclasses.replace(a, l1_hit_time=hit_time)
        b = dataclasses.replace(b, core=a.core, l1_hit_time=hit_time)
        assert perfect_run_key(a, trace, 0) == perfect_run_key(b, trace, 0)
        res_a = HierarchySimulator(a, seed=0, engine="fast").run(trace, perfect=True)
        res_b = HierarchySimulator(b, seed=0, engine="fast").run(trace, perfect=True)
        assert res_a.cpi == res_b.cpi
        assert res_a.total_cycles == res_b.total_cycles

    def test_key_reads_core_hit_time_seed_and_trace_content(self):
        trace = get_benchmark("410.bwaves").trace(100, seed=1)
        other = get_benchmark("410.bwaves").trace(100, seed=2)
        base = perfect_run_key(DEFAULT_MACHINE, trace, 0)
        assert perfect_run_key(
            DEFAULT_MACHINE.with_knobs(l1_ports=4, mshr_count=16, l2_banks=16),
            trace, 0,
        ) == base
        for key in (
            perfect_run_key(DEFAULT_MACHINE.with_knobs(issue_width=8), trace, 0),
            perfect_run_key(DEFAULT_MACHINE.with_knobs(rob_size=128), trace, 0),
            perfect_run_key(DEFAULT_MACHINE.with_knobs(iw_size=128), trace, 0),
            perfect_run_key(dataclasses.replace(DEFAULT_MACHINE, l1_hit_time=5),
                            trace, 0),
            perfect_run_key(DEFAULT_MACHINE, trace, 1),
            perfect_run_key(DEFAULT_MACHINE, other, 0),
        ):
            assert key != base


#: Two core-knob triples x L1 ports x MSHRs: 8 configs, 2 perfect keys.
MEMO_GRID = _grid(issue_width=(4, 8), l1_ports=(1, 4), mshr_count=(4, 16))


class TestCpiExeMemo:
    @pytest.mark.parametrize("profile", benchmark_names())
    def test_memoized_batch_equals_scalar(self, profile):
        trace = get_benchmark(profile).trace(250, seed=1)
        memo: dict = {}
        # Two calls sharing one memo: the second reuses the first's keys.
        pairs = (
            simulate_and_measure_batch(MEMO_GRID[:5], trace, cpi_exe_memo=memo)
            + simulate_and_measure_batch(MEMO_GRID[5:], trace, cpi_exe_memo=memo)
        )
        assert len(memo) == 2
        for config, (res, stats) in zip(MEMO_GRID, pairs):
            res_solo, stats_solo = simulate_and_measure(config, trace)
            _assert_same(res, res_solo, lane=f"{profile} {config.name}")
            assert stats.to_dict() == stats_solo.to_dict(), config.name

    @pytest.mark.parametrize("profile", ["429.mcf", "403.gcc"])
    def test_memoized_kernel_width_batch_equals_scalar(self, profile):
        # LANE_POOL's first 16 lanes reach the vectorized kernel under the
        # default crossover; their 4 core-knob triples give 4 perfect keys.
        configs = LANE_POOL[:_MIN_VECTOR_LANES]
        trace = get_benchmark(profile).trace(250, seed=1)
        memo: dict = {}
        pairs = simulate_and_measure_batch(configs, trace, cpi_exe_memo=memo)
        again = simulate_and_measure_batch(configs, trace, cpi_exe_memo=memo)
        assert len(memo) == len({(c.core, c.l1_hit_time) for c in configs})
        for config, (res, stats), (_, stats_again) in zip(configs, pairs, again):
            res_solo, stats_solo = simulate_and_measure(config, trace)
            _assert_same(res, res_solo, lane=f"{profile} {config.name}")
            assert stats.to_dict() == stats_solo.to_dict(), config.name
            assert stats_again.to_dict() == stats_solo.to_dict(), config.name

    def test_memo_hits_are_counted_and_skip_perfect_runs(self):
        trace = get_benchmark("429.mcf").trace(200, seed=1)
        registry = obs_metrics.get_registry()
        obs_metrics.set_metrics_enabled(True)
        memo: dict = {}
        counts = []
        for _ in range(2):
            registry.reset()
            simulate_and_measure_batch(MEMO_GRID, trace, cpi_exe_memo=memo)
            counters = registry.snapshot()["counters"]
            counts.append((counters["sim.runs"],
                           counters.get("sim.cpi_exe_memo_hits", 0)))
        n = len(MEMO_GRID)
        # First call: 2 perfect runs (one per key); second: none.
        assert counts == [(n + 2, n - 2), (n, n)]

    def test_walk_records_identical_with_and_without_memo(self, monkeypatch):
        from repro.core.algorithm import LPMAlgorithm
        from repro.reconfig import DesignSpace, GreedyReconfigBackend
        from repro.sim import stats

        def walk(trace):
            backend = GreedyReconfigBackend(DesignSpace(), trace, seed=7,
                                            delta_percent=10.0)
            result = LPMAlgorithm(10.0, max_steps=12).run(
                backend, allow_deprovision=True
            )
            record = (
                result.status.value, backend.describe(),
                [(s.case.value, s.config_label, repr(s.report.lpmr1))
                 for s in result.steps],
                backend.log.evaluations,
            )
            return record, len(backend._cpi_exe)

        traces = [get_benchmark(name).trace(300, seed=7)
                  for name in ("410.bwaves", "429.mcf", "403.gcc")]
        with_memo = [walk(trace) for trace in traces]
        original = stats.simulate_and_measure_batch

        def without_memo(*args, cpi_exe_memo=None, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(stats, "simulate_and_measure_batch", without_memo)
        without = [walk(trace) for trace in traces]
        for (rec, keys), (rec_plain, keys_plain) in zip(with_memo, without):
            assert rec == rec_plain
            assert keys_plain == 0
            # The walk re-measures the incumbent's core knobs at most steps.
            assert 0 < keys < rec[3]
