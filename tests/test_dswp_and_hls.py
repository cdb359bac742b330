"""Tests for the DSWP partitioner, queue allocation, thread extraction and HLS."""

import os

import pytest

from repro.config import CompilerConfig, HLSConfig, PartitionConfig
from repro.core.compiler import TwillCompiler
from repro.dswp import run_dswp
from repro.dswp.partitioner import DSWPPartitioner, PartitionKind
from repro.dswp.queues import allocate_queues, find_cross_partition_deps
from repro.dswp.loop_matching import LoopMatchCase, classify_loop_match
from repro.analysis import LoopInfo
from repro.frontend import compile_c
from repro.hls import AreaModel, HLSScheduler, LegUpFlow, bind_function
from repro.interp import Profile, run_module
from repro.ir import Opcode, verify_module
from repro.pdg import WeightModel, build_pdg
from repro.sim.system import repartition
from repro.transforms import GlobalsToArguments, default_pipeline
from repro.workloads import all_workloads, get_workload
from tests.conftest import PIPELINE_PROGRAM

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
WORKLOADS = {w.name for w in all_workloads()}


def _sources():
    """(name, source) of every builtin workload and corpus file."""
    sources = [(w.name, w.source) for w in all_workloads()]
    for filename in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, filename), encoding="utf-8") as fh:
            sources.append((filename[:-2], fh.read()))
    return sources


def _prepare(source):
    module = compile_c(source)
    default_pipeline().run(module)
    GlobalsToArguments().run(module)
    result = run_module(module, record_trace=True)
    profile = Profile.from_trace(module, result.trace)
    return module, profile


class TestPartitioner:
    def test_partition_respects_scc_atomicity(self, pipeline_module):
        result = run_module(pipeline_module, record_trace=True)
        profile = Profile.from_trace(pipeline_module, result.trace)
        partitioner = DSWPPartitioner(WeightModel(profile))
        fn = pipeline_module.get_function("main")
        pdg = build_pdg(fn)
        fp = partitioner.partition_function(fn, pdg, num_partitions=3, sw_fraction=0.25)
        for scc in fp.components:
            partitions = {fp.assignment[i] for i in scc.instructions}
            assert len(partitions) == 1, "an SCC was split across partitions"

    def test_cross_partition_edges_are_forward(self, pipeline_module):
        result = run_module(pipeline_module, record_trace=True)
        profile = Profile.from_trace(pipeline_module, result.trace)
        partitioner = DSWPPartitioner(WeightModel(profile))
        fn = pipeline_module.get_function("main")
        pdg = build_pdg(fn)
        fp = partitioner.partition_function(fn, pdg, num_partitions=3, sw_fraction=0.25)
        from repro.pdg.graph import DependenceKind

        for edge in pdg.edges:
            if edge.kind is not DependenceKind.DATA:
                continue
            src = fp.assignment[edge.tail]
            dst = fp.assignment[edge.head]
            assert src <= dst, "data must only flow forwards along the pipeline"

    def test_partition_zero_is_software_master(self, pipeline_module):
        result = run_module(pipeline_module, record_trace=True)
        profile = Profile.from_trace(pipeline_module, result.trace)
        partitioner = DSWPPartitioner(WeightModel(profile))
        fn = pipeline_module.get_function("main")
        fp = partitioner.partition_function(fn, build_pdg(fn), num_partitions=3, sw_fraction=0.25)
        assert fp.partitions[0].kind is PartitionKind.SOFTWARE
        assert fp.master_partition() is fp.partitions[0]

    def test_every_instruction_assigned(self, pipeline_module):
        result = run_module(pipeline_module, record_trace=True)
        profile = Profile.from_trace(pipeline_module, result.trace)
        partitioner = DSWPPartitioner(WeightModel(profile))
        fn = pipeline_module.get_function("main")
        fp = partitioner.partition_function(fn, build_pdg(fn), num_partitions=4, sw_fraction=0.3)
        assert len(fp.assignment) == fn.instruction_count()

    def test_single_partition_allowed(self, pipeline_module):
        result = run_module(pipeline_module, record_trace=True)
        profile = Profile.from_trace(pipeline_module, result.trace)
        partitioner = DSWPPartitioner(WeightModel(profile))
        fn = pipeline_module.get_function("main")
        fp = partitioner.partition_function(fn, build_pdg(fn), num_partitions=1, sw_fraction=1.0)
        assert len(fp.partitions) == 1


class TestQueuesAndExtraction:
    def test_queue_allocation_granularity(self, pipeline_module):
        result = run_module(pipeline_module, record_trace=True)
        profile = Profile.from_trace(pipeline_module, result.trace)
        partitioner = DSWPPartitioner(WeightModel(profile))
        fn = pipeline_module.get_function("main")
        fp = partitioner.partition_function(fn, build_pdg(fn), num_partitions=3, sw_fraction=0.25)
        allocation = allocate_queues(fp)
        keys = {(q.value, q.consumer_partition) for q in allocation.queues}
        assert len(keys) == len(allocation.queues), "one queue per (value, consumer)"
        for dep in allocation.deps:
            assert dep.producer_partition != dep.consumer_partition

    def test_loop_matching_cases(self):
        module = compile_c(
            """
            int src[8]; int dst[8];
            int main(void) {
              int i; int j; int seed = 3; int total = 0;
              for (i = 0; i < 8; i++) { src[i] = seed * (i + 1); }
              for (j = 0; j < 8; j++) { total += src[j]; }
              print_int(total);
              return total;
            }
            """
        )
        default_pipeline().run(module)
        fn = module.get_function("main")
        loop_info = LoopInfo(fn)
        loops = loop_info.loops()
        assert len(loops) == 2
        first_loop, second_loop = loops[0], loops[1]
        store = next(i for i in fn.instructions() if i.opcode is Opcode.STORE)
        load = next(i for i in fn.instructions() if i.opcode is Opcode.LOAD)
        case = classify_loop_match(store, load, loop_info)
        assert case is LoopMatchCase.DISTINCT_LOOPS

    def test_run_dswp_and_extraction_verify(self):
        module, profile = _prepare(PIPELINE_PROGRAM)
        dswp = run_dswp(module, profile=profile, extract_threads=True)
        verify_module(module)
        summary = dswp.summary()
        assert summary["hw_threads"] >= 1
        assert summary["queues"] >= 1
        extraction = dswp.partitioning.extractions.get("main")
        assert extraction is not None
        thread_names = [t.function.name for t in extraction.threads]
        assert all(name.startswith("main_dswp_") for name in thread_names)
        # Every queue written by one thread is read by another.
        writes = set()
        reads = set()
        for t in extraction.threads:
            writes.update(t.queue_writes)
            reads.update(t.queue_reads)
        assert writes and reads

    @pytest.mark.parametrize("name,source", _sources(), ids=[n for n, _ in _sources()])
    def test_extracted_threads_are_valid_ir(self, name, source):
        """Queue operations of phi-defined values follow the block's phi run.

        A consume standing in for a foreign phi, or a produce right after an
        owned one, used to land inside the phi run ("phi after non-phi").
        """
        compiler = TwillCompiler(CompilerConfig(extract_threads=True))
        result = compiler.compile_and_simulate(source, name=name)
        if name in WORKLOADS:  # the corpus programs are too small to split
            assert result.dswp.partitioning.extractions
        report = verify_module(result.module, raise_on_error=False)
        assert report.errors == []

    def test_sw_fraction_sweep_changes_partitioning(self):
        module, profile = _prepare(PIPELINE_PROGRAM)
        low = run_dswp(module, profile=profile, sw_fraction=0.05).summary()
        high = run_dswp(module, profile=profile, sw_fraction=0.75).summary()
        assert low["queues"] >= 0 and high["queues"] >= 0
        # A larger targeted SW share cannot shrink the SW share achieved.
        assert high["sw_fraction"] >= low["sw_fraction"] - 1e-9


class TestHLS:
    def test_schedule_respects_dependences(self, pipeline_module):
        fn = pipeline_module.get_function("main")
        scheduler = HLSScheduler(HLSConfig())
        schedule = scheduler.schedule_function(fn)
        for block in fn.blocks:
            sched = schedule.blocks[block.name]
            in_block = set(block.instructions)
            for inst in block.instructions:
                for op in inst.operands:
                    if op in in_block and not op.is_phi():
                        assert sched.start_cycle[op] <= sched.start_cycle[inst]

    def test_issue_width_limits_parallelism(self):
        module = compile_c(
            "int a[16]; int main(void){ int i; int s=0; for(i=0;i<16;i++){ s += a[i]*3 + i*7 - (i^5); } return s; }"
        )
        default_pipeline().run(module)
        fn = module.get_function("main")
        wide = HLSScheduler(HLSConfig(issue_width=8)).schedule_function(fn)
        narrow = HLSScheduler(HLSConfig(issue_width=1)).schedule_function(fn)
        assert narrow.total_latency_estimate() >= wide.total_latency_estimate()

    def test_binding_sharing_reduces_units(self, pipeline_module):
        fn = pipeline_module.get_function("main")
        schedule = HLSScheduler().schedule_function(fn)
        shared = bind_function(schedule, share_resources=True)
        unshared = bind_function(schedule, share_resources=False)
        total_shared = sum(shared.units.values())
        total_unshared = sum(unshared.units.values())
        assert total_shared <= total_unshared

    def test_area_model_components(self):
        model = AreaModel()
        runtime = model.runtime_area(num_queues=10, num_semaphores=2, num_hw_threads=3)
        assert runtime.luts > 0 and runtime.dsps >= 10
        assert runtime.detail["queues"] == 10 * model.primitives.queue_luts(8, 32)
        mb = model.microblaze_area()
        assert mb.brams == 16

    def test_queue_area_scales_with_geometry(self):
        from repro.costmodel.hardware import RUNTIME_PRIMITIVE_AREA as P

        assert P.queue_luts(8, 32) == 65
        assert P.queue_luts(32, 32) > P.queue_luts(8, 32)
        assert P.queue_luts(8, 8) < P.queue_luts(8, 32)

    def test_legup_flow_covers_all_functions(self, pipeline_module):
        result = LegUpFlow().run(pipeline_module)
        defined = {f.name for f in pipeline_module.defined_functions()}
        assert set(result.schedules) == defined
        assert result.total_luts > 0


@pytest.mark.parametrize("name", ["blowfish", "mips"])
def test_a_split_of_an_extracting_compile_partitions_only_the_source_functions(name):
    """Re-partitioning a module whose threads were extracted leaves the
    ``f_dswp_<k>`` threads alone, so a split's re-partition gives the same
    DSWP summary with extraction as without."""
    source = get_workload(name).source
    summaries = []
    for extract in (False, True):
        compiler = TwillCompiler(CompilerConfig(extract_threads=extract))
        result = compiler.compile_and_simulate(source, name=name)
        summaries.append(repartition(result.module, result.profile, compiler.config, 0.25).summary())
    assert summaries[0] == summaries[1]
