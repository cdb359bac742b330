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

from typing import Any, Dict, Optional, Sequence

from repro import perf
from repro.analysis.callgraph import CallGraph
from repro.config import CompilerConfig
from repro.dswp.pipeline import run_dswp
from repro.frontend.lowering import compile_c
from repro.hls.legup import LegUpFlow
from repro.interp.interpreter import ExecutionResult, Interpreter
from repro.interp.profile import Profile
from repro.interp.trace import Trace
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.results import CompilationResult
from repro.sim.system import HybridSystem
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

    def build(
        self,
        source: str,
        name: str = "program",
        args: Sequence[int] = (),
        sw_fraction: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Every stage up to the timing replays: front end, execution,
        profile, DSWP (with thread extraction when the config asks) and
        LegUp.  Returns the heavy fields of a
        :class:`~repro.results.CompilationResult` by name.

        Deterministic in its arguments, so a cached compile stores only its
        summary, and a re-simulation runs this again
        (:func:`repro.eval.worker.sweep_input`).
        """
        module = self.compile_module(source, name)
        execution = self.execute(module, args)
        assert execution.trace is not None
        profile = self.profile(module, execution.trace)
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
        return {
            "module": module,
            "execution": execution,
            "profile": profile,
            "dswp": dswp,
            "legup": legup,
        }

    def compile_and_simulate(
        self,
        source: str,
        name: str = "program",
        args: Sequence[int] = (),
        sw_fraction: Optional[float] = None,
    ) -> CompilationResult:
        """Run the entire pipeline on a C source string: :meth:`build`, then
        the three timing replays."""
        fields = self.build(source, name, args, sw_fraction)
        with perf.stage("replay"):
            system = HybridSystem(self.config).evaluate(
                name,
                fields["module"],
                fields["execution"].trace,
                fields["dswp"],
                fields["legup"],
            )
        return CompilationResult(name=name, system=system, **fields)

    def profile(self, module: Module, trace: Trace) -> Profile:
        """The DSWP weights' profile: the trace's counts, or the static
        loop-depth estimate when the config asks for it."""
        if self.config.partition.use_profile_weights:
            return Profile.from_trace(module, trace)
        return Profile.static_estimate(module)
