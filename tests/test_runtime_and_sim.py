"""Tests for the runtime primitives and the hybrid timing simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CompilerConfig, HLSConfig, RuntimeConfig
from repro.core.compiler import TwillCompiler
from repro.dswp import run_dswp
from repro.frontend import compile_c
from repro.interp import Profile, run_module
from repro.sim import ExecutionDomain, HybridSystem, ThreadAssignment, TimingSimulator
from repro.sim.system import evaluate_with_partition, repartition
from repro.sim.timing import simulate_partitioned
from repro.transforms import GlobalsToArguments, default_pipeline
from tests.conftest import PIPELINE_PROGRAM
from tests.reference_runtime import MessageBus, TimedQueue


# ---------------------------------------------------------------------------
# Runtime primitives
# ---------------------------------------------------------------------------


class TestTimedQueue:
    def test_fifo_latency_and_costs(self):
        q = TimedQueue(0, depth=8, latency=2, enqueue_cost=2, dequeue_cost=2)
        done = q.enqueue(10.0)
        assert done == 12.0
        got = q.dequeue(0.0)
        # value visible at 12 + 2 latency, plus 2 cycles of dequeue work
        assert got == 16.0

    def test_consumer_stalls_on_empty(self):
        q = TimedQueue(0, depth=4, latency=2)
        q.enqueue(100.0)
        q.dequeue(0.0)
        assert q.stats.consumer_stall_cycles > 0

    def test_producer_back_pressure(self):
        q = TimedQueue(0, depth=2, latency=1)
        q.enqueue(0.0)
        q.enqueue(0.0)
        assert not q.can_enqueue()
        q.dequeue(0.0)
        assert q.can_enqueue()

    def test_full_queue_delays_enqueue_until_space(self):
        q = TimedQueue(0, depth=1, latency=1, enqueue_cost=1, dequeue_cost=1)
        q.enqueue(0.0)
        first_out = q.dequeue(50.0)       # slot frees at 51
        done = q.enqueue(10.0)
        assert done >= first_out

    @given(st.integers(1, 16), st.lists(st.integers(0, 100), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_occupancy_never_exceeds_depth_plus_one(self, depth, ready_times):
        q = TimedQueue(0, depth=depth, latency=2)
        for t in ready_times:
            if q.can_enqueue():
                q.enqueue(float(t))
            else:
                q.dequeue(float(t))
        assert q.occupancy <= depth + 1

    @given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_dequeue_times_monotonic(self, times):
        q = TimedQueue(0, depth=64, latency=2)
        for t in times:
            q.enqueue(t)
        outs = [q.dequeue(0.0) for _ in times]
        assert all(b >= a for a, b in zip(outs, outs[1:]))


class TestSemaphoreBusScheduler:
    def test_bus_serialises_contention(self):
        bus = MessageBus(latency=1)
        first = bus.request(5.0)
        second = bus.request(5.0)
        assert second > first
        assert bus.stats.transfers == 2

    def test_bus_processor_priority_is_not_delayed(self):
        bus = MessageBus(latency=1)
        bus.request(3.0)
        done = bus.request(3.0, processor=True)
        assert done == 4.0


# ---------------------------------------------------------------------------
# Timing simulation
# ---------------------------------------------------------------------------


def _compiled_pipeline():
    module = compile_c(PIPELINE_PROGRAM)
    default_pipeline().run(module)
    GlobalsToArguments().run(module)
    execution = run_module(module, record_trace=True)
    profile = Profile.from_trace(module, execution.trace)
    dswp = run_dswp(module, profile=profile)
    return module, execution, dswp


class TestTimingSimulator:
    def test_pure_sw_slower_than_pure_hw(self):
        module, execution, _ = _compiled_pipeline()
        sim = TimingSimulator()
        sw = sim.simulate(execution.trace, ThreadAssignment.pure_software(module))
        hw = sim.simulate(execution.trace, ThreadAssignment.pure_hardware(module))
        assert sw.total_cycles > hw.total_cycles
        assert sw.events == hw.events == len(execution.trace)

    def test_twill_beats_pure_software(self):
        module, execution, dswp = _compiled_pipeline()
        sim = TimingSimulator()
        sw = sim.simulate(execution.trace, ThreadAssignment.pure_software(module))
        twill = sim.simulate(execution.trace, ThreadAssignment.from_partitioning(module, dswp.partitioning))
        assert twill.total_cycles < sw.total_cycles
        assert twill.forced_events == 0

    def test_queue_latency_monotonicity(self):
        module, execution, dswp = _compiled_pipeline()
        assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
        cycles = []
        for latency in (2, 8, 32, 128):
            sim = TimingSimulator(RuntimeConfig(queue_latency=latency))
            cycles.append(sim.simulate(execution.trace, assignment).total_cycles)
        assert all(b >= a - 1e-9 for a, b in zip(cycles, cycles[1:]))

    def test_queue_depth_monotonicity(self):
        module, execution, dswp = _compiled_pipeline()
        assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
        sim_small = TimingSimulator(RuntimeConfig(queue_depth=1))
        sim_big = TimingSimulator(RuntimeConfig(queue_depth=32))
        small = sim_small.simulate(execution.trace, assignment).total_cycles
        big = sim_big.simulate(execution.trace, assignment).total_cycles
        assert big <= small + 1e-9

    def test_assignment_thread_structure(self):
        module, execution, dswp = _compiled_pipeline()
        assignment = ThreadAssignment.from_partitioning(module, dswp.partitioning)
        assert len(assignment.software_threads()) == 1
        assert assignment.hardware_thread_count == dswp.partitioning.hardware_thread_count
        # Every instruction of every defined function maps to a known thread.
        for fn in module.defined_functions():
            for inst in fn.instructions():
                spec = assignment.by_id[assignment._map.get(inst, 0)]
                assert spec.domain in (ExecutionDomain.SOFTWARE, ExecutionDomain.HARDWARE)

    def test_empty_trace(self):
        from repro.interp.trace import Trace

        module = compile_c("int main(void){ return 0; }")
        sim = TimingSimulator()
        result = sim.simulate(Trace(), ThreadAssignment.pure_software(module))
        assert result.total_cycles == 0.0


class TestHybridSystemAndCompiler:
    def test_full_system_shapes(self):
        compiler = TwillCompiler(CompilerConfig())
        result = compiler.compile_and_simulate(PIPELINE_PROGRAM, name="pipeline")
        system = result.system
        # Functional correctness
        reference = run_module(compile_c(PIPELINE_PROGRAM)).outputs
        assert result.outputs == reference
        # Shape: Twill and pure HW beat pure SW; areas/power are positive and ordered.
        assert system.speedup_vs_software > 1.0
        assert system.hw_speedup_vs_software > 1.0
        assert system.pure_hardware.area.luts > 0
        assert system.hw_thread_area.luts > 0
        power = system.power_normalised()
        assert power["pure_hw"] < power["pure_sw"]
        assert 0.0 < power["twill"] <= 1.5

    def test_report_is_readable(self):
        compiler = TwillCompiler()
        result = compiler.compile_and_simulate(PIPELINE_PROGRAM, name="pipeline")
        text = result.report()
        assert "speedup vs pure SW" in text
        assert "queues" in text

    def test_runtime_sweep_api(self):
        compiler = TwillCompiler()
        result = compiler.compile_and_simulate(PIPELINE_PROGRAM, name="pipeline")

        def replay(runtime):
            return simulate_partitioned(
                result.module, result.execution.trace, result.dswp.partitioning,
                runtime, compiler.config.hls,
            )

        slow = replay(RuntimeConfig(queue_latency=128))
        fast = replay(RuntimeConfig(queue_latency=2))
        assert slow.total_cycles >= fast.total_cycles

    def test_split_sweep_api(self):
        compiler = TwillCompiler()
        result = compiler.compile_and_simulate(PIPELINE_PROGRAM, name="pipeline")
        dswp = repartition(result.module, result.profile, compiler.config, 0.6)
        other = evaluate_with_partition(
            result.name, result.module, result.execution.trace, dswp, result.legup,
            compiler.config,
        )
        assert other.twill.cycles > 0

    def test_config_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            RuntimeConfig(queue_depth=0).validate()
        with pytest.raises(ConfigError):
            RuntimeConfig(queue_width_bits=64).validate()
        with pytest.raises(ConfigError):
            HLSConfig(issue_width=0).validate()
        cfg = CompilerConfig()
        cfg.partition.sw_fraction = 2.0
        with pytest.raises(ConfigError):
            cfg.validate()
        # The runtime costs the replay reads: five cycles per processor-side
        # runtime operation (§4.5), two-cycle reads, one-cycle writes and a
        # two-cycle cross-domain visibility delay (§4.1).
        runtime = RuntimeConfig()
        assert runtime.processor_op_cycles == 5
        assert (runtime.memory_read_cycles, runtime.memory_write_cycles) == (2, 1)
        assert runtime.coherency_delay == 2


@pytest.mark.parametrize(
    "field, value",
    [("queue_depth", 8.0), ("queue_depth", True), ("queue_latency", 2.5)],
)
def test_config_validation_requires_integer_queue_geometry(field, value):
    """A float depth passed ``validate()`` and then crashed the replay's
    queue-slot indexing with a ``TypeError``."""
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        RuntimeConfig(**{field: value}).validate()


def test_config_validation_requires_numeric_latencies():
    from repro.errors import ConfigError

    RuntimeConfig(bus_latency=3.0, memory_read_cycles=2.5).validate()  # fractional is fine
    for field in ("bus_latency", "memory_read_cycles", "coherency_delay", "processor_op_cycles"):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            RuntimeConfig(**{field: "2"}).validate()
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            RuntimeConfig(**{field: False}).validate()
