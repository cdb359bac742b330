"""The Twill compiler driver: C source in, hybrid-system evaluation out.

This is the public entry point of the reproduction.  It chains every stage
the thesis describes (Figure 5.1):

1. front end — parse + lower the C subset to SSA IR (``repro.frontend``);
2. the standard LLVM-style pass pipeline (``repro.transforms``);
3. Twill's globals-to-arguments pass;
4. functional execution to obtain outputs, a dynamic trace and a profile;
5. DSWP partitioning, queue/semaphore allocation and (optionally) thread
   extraction;
6. LegUp-style HLS scheduling and area estimation;
7. hybrid timing simulation of the pure-SW, pure-HW and Twill
   configurations, plus the power model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import perf
from repro.analysis.callgraph import CallGraph
from repro.config import CompilerConfig, RuntimeConfig
from repro.dswp.pipeline import DSWPResult, run_dswp
from repro.frontend.lowering import compile_c
from repro.hls.legup import LegUpFlow, LegUpResult
from repro.interp.interpreter import ExecutionResult, Interpreter
from repro.interp.profile import Profile
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.sim.system import HybridSystem, SystemResult
from repro.sim.system import resimulate_with_split as sim_resimulate_with_split
from repro.sim.timing import TimingResult, simulate_partitioned
from repro.transforms.globals_to_args import GlobalsToArguments
from repro.transforms.pass_manager import default_pipeline


#: The fields a lazy :class:`CompilationResult` builds on their first read.
_HEAVY_FIELDS = frozenset(("module", "execution", "profile", "dswp", "legup"))


@dataclass
class CompilationResult:
    """Everything produced by one compile-and-simulate run.

    A result decoded from the artifact cache is *lazy* (:meth:`lazy`): it
    holds ``name``, ``system``, the functional outputs and the DSWP summary,
    and builds the five heavy fields on the first read of any of them.
    ``==``, pickling and :func:`dataclasses.replace` read every field, so
    they materialise it first; a report reads none of them.
    """

    name: str
    module: Module
    execution: ExecutionResult
    profile: Profile
    dswp: DSWPResult
    legup: LegUpResult
    system: SystemResult

    @classmethod
    def lazy(
        cls,
        name: str,
        system: SystemResult,
        outputs: List[int],
        dswp_summary: Dict[str, float],
        load: Callable[[], Dict[str, Any]],
    ) -> "CompilationResult":
        """A result whose heavy fields are ``load()``'s, built on first read.

        *load* returns the five heavy fields by name and runs at most once
        successfully; ``execution.outputs`` must be *outputs*.
        """
        result = cls.__new__(cls)
        result.name = name
        result.system = system
        result._outputs = outputs
        result._dswp_summary = dswp_summary
        result._load = load
        return result

    def __getattr__(self, attr: str) -> Any:
        # Only reached for attributes the instance lacks: the heavy fields
        # of a lazy result before their first read.
        if "_load" not in self.__dict__ or attr not in _HEAVY_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        self._materialise()
        return self.__dict__[attr]

    def _materialise(self) -> None:
        load = self.__dict__.get("_load")
        if load is not None:
            self.__dict__.update(load())
            del self._load, self._outputs, self._dswp_summary

    def __getstate__(self) -> Dict[str, Any]:
        self._materialise()  # the loader is not picklable
        return self.__dict__

    # -- convenience accessors --------------------------------------------------------

    @property
    def outputs(self) -> List[int]:
        if "_load" in self.__dict__:
            return self._outputs
        return self.execution.outputs

    @property
    def return_value(self) -> Optional[int]:
        return self.execution.return_value

    @property
    def speedup_vs_software(self) -> float:
        return self.system.speedup_vs_software

    @property
    def speedup_vs_hardware(self) -> float:
        return self.system.speedup_vs_hardware

    def dswp_summary(self) -> Dict[str, float]:
        if "_load" in self.__dict__:
            return dict(self._dswp_summary)
        return self.dswp.summary()

    def summary_dict(self) -> Dict[str, object]:
        """Machine-readable counterpart of :meth:`report` (``repro run --json``)."""
        s = self.system
        dswp = self.dswp_summary()
        return {
            "benchmark": self.name,
            "queues": dswp["queues"],
            "semaphores": dswp["semaphores"],
            "hw_threads": dswp["hw_threads"],
            "pure_sw_cycles": s.pure_software.cycles,
            "pure_hw_cycles": s.pure_hardware.cycles,
            "twill_cycles": s.twill.cycles,
            "speedup_vs_sw": s.speedup_vs_software,
            "speedup_vs_hw": s.speedup_vs_hardware,
            "legup_luts": s.pure_hardware.area.luts,
            "twill_luts": s.twill.area.luts,
        }

    def report(self) -> str:
        """Human-readable one-benchmark report."""
        s = self.system
        lines = [
            f"benchmark             : {self.name}",
            f"functional outputs    : {len(self.outputs)} values, checksum 0x{self.execution.output_checksum:08x}",
            f"dynamic instructions  : {len(self.execution.trace) if self.execution.trace else 0}",
            f"queues / semaphores   : {self.dswp.partitioning.total_queues} / {self.dswp.partitioning.total_semaphores}",
            f"hardware threads      : {self.dswp.partitioning.hardware_thread_count}",
            f"pure SW cycles        : {s.pure_software.cycles:,.0f}",
            f"pure HW cycles        : {s.pure_hardware.cycles:,.0f}",
            f"Twill cycles          : {s.twill.cycles:,.0f}",
            f"speedup vs pure SW    : {s.speedup_vs_software:.2f}x",
            f"speedup vs pure HW    : {s.speedup_vs_hardware:.2f}x",
            f"LegUp LUTs            : {s.pure_hardware.area.luts:,}",
            f"Twill HWThread LUTs   : {s.hw_thread_area.luts:,}",
            f"Twill LUTs (+runtime) : {s.twill.area.luts - self.system.twill.area.detail.get('microblaze', 0):,}",
            f"power (norm. to SW)   : HW {s.power_normalised()['pure_hw']:.2f}, Twill {s.power_normalised()['twill']:.2f}",
        ]
        return "\n".join(lines)


class TwillCompiler:
    """Drives the full compile → partition → schedule → simulate pipeline."""

    def __init__(self, config: Optional[CompilerConfig] = None):
        self.config = config or CompilerConfig()
        self.config.validate()

    # -- stage 1-3: front end and IR pipeline ----------------------------------------------

    def compile_module(self, source: str, name: str = "program") -> Module:
        """Parse, lower and optimise C source into a DSWP-ready IR module."""
        module = compile_c(source, module_name=name)
        with perf.stage("ssa"):
            CallGraph(module).check_no_recursion()
            pipeline = default_pipeline(
                inline_threshold=self.config.inline_threshold,
                verify_each=self.config.verify_passes,
            )
            pipeline.run(module)
            if self.config.globals_to_arguments:
                GlobalsToArguments().run(module)
            verify_module(module)
        return module

    # -- stage 4: functional execution --------------------------------------------------------

    def execute(self, module: Module, args: Sequence[int] = ()) -> ExecutionResult:
        with perf.stage("interp"):
            interpreter = Interpreter(
                module, record_trace=True, max_steps=self.config.max_interpreter_steps
            )
            return interpreter.run("main", args)

    # -- stage 5-7: partition, schedule, simulate ----------------------------------------------

    def compile_and_simulate(
        self,
        source: str,
        name: str = "program",
        args: Sequence[int] = (),
        sw_fraction: Optional[float] = None,
    ) -> CompilationResult:
        """Run the entire pipeline on a C source string."""
        module = self.compile_module(source, name)
        execution = self.execute(module, args)
        assert execution.trace is not None
        profile = (
            Profile.from_trace(module, execution.trace)
            if self.config.partition.use_profile_weights
            else Profile.static_estimate(module)
        )
        with perf.stage("dswp"):
            dswp = run_dswp(
                module,
                profile=profile,
                config=self.config.partition,
                extract_threads=self.config.extract_threads,
                sw_fraction=sw_fraction,
            )
        with perf.stage("hls"):
            legup = LegUpFlow(self.config.hls).run(module)
        with perf.stage("replay"):
            system = HybridSystem(self.config).evaluate(name, module, execution.trace, dswp, legup)
        return CompilationResult(
            name=name,
            module=module,
            execution=execution,
            profile=profile,
            dswp=dswp,
            legup=legup,
            system=system,
        )

    # -- parameter sweeps used by the evaluation ---------------------------------------------------

    def simulate_with_runtime(
        self, result: CompilationResult, runtime: RuntimeConfig
    ) -> TimingResult:
        """Re-run only the Twill timing simulation with a different runtime config
        (used for the queue latency / queue size sweeps of Figures 6.5 and 6.6).

        Delegates to the pure :func:`repro.sim.timing.simulate_partitioned`,
        the same function the task-graph sweep workers execute.
        """
        assert result.execution.trace is not None
        return simulate_partitioned(
            result.module, result.execution.trace, result.dswp.partitioning, runtime, self.config.hls
        )

    def resimulate_with_split(
        self, result: CompilationResult, sw_fraction: float
    ) -> CompilationResult:
        """Re-partition with a different targeted SW/HW split and re-simulate
        (used for the partition-split sweeps of Figures 6.3 and 6.4).

        Delegates to the pure :func:`repro.sim.system.resimulate_with_split`,
        the same function the task-graph sweep workers execute.
        """
        assert result.execution.trace is not None
        dswp, system = sim_resimulate_with_split(
            result.name,
            result.module,
            result.execution.trace,
            result.profile,
            result.legup,
            self.config,
            sw_fraction,
        )
        return CompilationResult(
            name=result.name,
            module=result.module,
            execution=result.execution,
            profile=result.profile,
            dswp=dswp,
            legup=result.legup,
            system=system,
        )
