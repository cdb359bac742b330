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

from typing import Optional, Sequence

from repro import perf
from repro.analysis.callgraph import CallGraph
from repro.config import CompilerConfig, RuntimeConfig
from repro.dswp.pipeline import run_dswp
from repro.frontend.lowering import compile_c
from repro.hls.legup import LegUpFlow
from repro.interp.interpreter import ExecutionResult, Interpreter
from repro.interp.profile import Profile
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.results import CompilationResult
from repro.sim.system import HybridSystem
from repro.sim.system import resimulate_with_split as sim_resimulate_with_split
from repro.sim.timing import TimingResult, simulate_partitioned
from repro.transforms.globals_to_args import GlobalsToArguments
from repro.transforms.pass_manager import default_pipeline


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
