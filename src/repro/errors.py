"""Exception hierarchy shared by every subsystem of the Twill reproduction.

Each stage of the pipeline raises a dedicated subclass of
:class:`ReproError` so callers can distinguish "the input C program is
malformed" from "the compiler itself violated one of its invariants".
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class FrontendError(ReproError):
    """Base class for errors raised while processing C source text."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        #: The position-free message, for callers (the ingest diagnostics
        #: layer) that render their own ``file:line:col:`` prefix.
        self.raw_message = message
        if line is not None:
            message = f"line {line}" + (f", col {col}" if col is not None else "") + f": {message}"
        super().__init__(message)


class LexerError(FrontendError):
    """Raised when the lexer encounters a character sequence it cannot tokenize."""


class ParseError(FrontendError):
    """Raised when the parser encounters an unexpected token."""


class SemanticError(FrontendError):
    """Raised for type errors, undeclared identifiers, and other semantic problems."""


class UnsupportedFeatureError(FrontendError):
    """Raised for C constructs outside the supported subset (e.g. recursion,
    function pointers, 64-bit values) — the same restrictions Twill documents."""


class IngestError(ReproError):
    """Raised when a raw ``.c`` file cannot be ingested as a workload — the
    file is unreadable, preprocessing failed (missing include, include
    cycle), or the frontend reported diagnostics.  Carries the structured
    :class:`repro.frontend.diagnostics.Diagnostic` list when one exists."""

    def __init__(self, message: str, diagnostics=None):
        self.diagnostics = list(diagnostics or [])
        super().__init__(message)


class IRError(ReproError):
    """Raised when the IR is manipulated in an inconsistent way."""


class VerificationError(IRError):
    """Raised by the IR verifier when a module violates an IR invariant."""


class InterpreterError(ReproError):
    """Raised when functional execution of an IR module fails."""


class InterpreterTrap(InterpreterError):
    """Raised for runtime traps during interpretation (division by zero,
    out-of-bounds memory access, etc.)."""


class PartitionError(ReproError):
    """Raised when the DSWP partitioner cannot produce a legal partition."""


class SchedulingError(ReproError):
    """Raised when the HLS scheduler cannot schedule a function."""


class SimulationError(ReproError):
    """Raised when the timing simulator reaches an inconsistent state."""


class ConfigError(ReproError):
    """Raised for invalid configuration values."""


class UnknownWorkloadError(ReproError, KeyError):
    """Raised when a workload name is not in the registry.

    Also a :class:`KeyError` for callers treating the registry as a mapping.
    """

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0] if self.args else ""


class TaskGraphError(ReproError):
    """Raised for malformed evaluation task graphs (unknown dependencies,
    conflicting node definitions)."""


class TaskGraphCycleError(TaskGraphError):
    """Raised when a task graph contains a dependency cycle and therefore
    has no executable topological order."""
