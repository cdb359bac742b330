"""Twill reproduction: hybrid MCU/FPGA parallelization of single-threaded C.

This package reproduces the system described in *Twill: A Hybrid
Microcontroller-FPGA Framework for Parallelizing Single-Threaded C Programs*
(Gallatin, 2014).  The public entry point is :class:`repro.core.TwillCompiler`
which chains the C front end, the SSA IR passes, the DSWP partitioner, the
LegUp-style HLS scheduler, and the hybrid timing simulator.

Typical use::

    from repro import TwillCompiler, CompilerConfig
    result = TwillCompiler(CompilerConfig()).compile_and_simulate(c_source)
    print(result.report())
"""

from repro.lazy import export_names, lazy_exports

__version__ = "1.0.0"

# The subpackages are imported on first use of a name, so that low-level
# pieces (e.g. repro.ir, repro.frontend) can be used without pulling in the
# whole compiler/simulator stack.
_EXPORTS = {
    "repro.core.compiler": ("TwillCompiler",),
    "repro.results": ("CompilationResult", "CompileSummary"),
    "repro.config": ("CompilerConfig", "RuntimeConfig", "PartitionConfig"),
}

__all__ = export_names(_EXPORTS) + ["__version__"]
__getattr__ = lazy_exports(__name__, _EXPORTS)
