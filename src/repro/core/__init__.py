"""Public API of the Twill reproduction: the compiler driver and its configuration."""

from repro.lazy import export_names, lazy_exports

_EXPORTS = {
    "repro.config": ("CompilerConfig", "HLSConfig", "PartitionConfig", "RuntimeConfig"),
    "repro.results": ("CompilationResult",),
    "repro.core.compiler": ("TwillCompiler",),
    "repro.core.report": ("format_result_table",),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
