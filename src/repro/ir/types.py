"""Type system for the SSA intermediate representation.

The type lattice is intentionally small — it mirrors the subset of C that
Twill (and the CHStone kernels the thesis evaluates) actually needs:

* fixed-width integers up to 32 bits (the thesis explicitly excludes the
  64-bit CHStone kernels, and so do we);
* `void` for functions without a return value;
* pointers, used for array parameters and the address of globals;
* one- and two-dimensional arrays of integers;
* function types.

Types are immutable value objects: two structurally identical types compare
equal and hash equally, so they can be freely shared between instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import IRError


class Type:
    """Base class for all IR types."""

    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    # Size in bytes when laid out in the simulated unified memory.
    def size_bytes(self) -> int:
        raise IRError(f"type {self!r} has no memory size")


@dataclass(frozen=True)
class VoidType(Type):
    """The type of functions that return nothing and of store/branch results."""

    def __repr__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    """A fixed-width integer type.

    ``bits`` is the width (8, 16 or 32) and ``signed`` records the C-level
    signedness used for comparisons, division and right shifts.
    """

    bits: int = 32
    signed: bool = True

    def __post_init__(self) -> None:
        if self.bits not in (1, 8, 16, 32):
            raise IRError(f"unsupported integer width: {self.bits}")

    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    @property
    def min_value(self) -> int:
        if not self.signed:
            return 0
        return -(1 << (self.bits - 1))

    @property
    def max_value(self) -> int:
        if not self.signed:
            return (1 << self.bits) - 1
        return (1 << (self.bits - 1)) - 1

    def wrap(self, value: int) -> int:
        """Wrap an arbitrary Python integer into this type's range (two's complement)."""
        mask = (1 << self.bits) - 1
        value &= mask
        if self.signed and value >= (1 << (self.bits - 1)):
            value -= 1 << self.bits
        return value

    def __repr__(self) -> str:
        prefix = "i" if self.signed else "u"
        return f"{prefix}{self.bits}"


@dataclass(frozen=True)
class PointerType(Type):
    """A pointer to ``pointee``.  Pointers occupy 4 bytes in simulated memory."""

    pointee: Type

    def size_bytes(self) -> int:
        return 4

    def __repr__(self) -> str:
        return f"{self.pointee!r}*"


@dataclass(frozen=True)
class ArrayType(Type):
    """A fixed-length array.  Multi-dimensional arrays nest ArrayTypes."""

    element: Type
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise IRError(f"negative array length: {self.count}")

    def size_bytes(self) -> int:
        return self.element.size_bytes() * self.count

    def flat_element(self) -> Type:
        """Return the innermost (non-array) element type."""
        ty: Type = self
        while isinstance(ty, ArrayType):
            ty = ty.element
        return ty

    def flat_count(self) -> int:
        """Return the total number of scalar elements."""
        n = 1
        ty: Type = self
        while isinstance(ty, ArrayType):
            n *= ty.count
            ty = ty.element
        return n

    def __repr__(self) -> str:
        return f"[{self.count} x {self.element!r}]"


@dataclass(frozen=True)
class FunctionType(Type):
    """The type of a function: return type and parameter types."""

    return_type: Type
    param_types: Tuple[Type, ...] = field(default_factory=tuple)

    def __repr__(self) -> str:
        params = ", ".join(repr(p) for p in self.param_types)
        return f"{self.return_type!r}({params})"


# Commonly used singletons -------------------------------------------------

VOID = VoidType()
I1 = IntType(1, signed=False)
I8 = IntType(8, signed=True)
U8 = IntType(8, signed=False)
I16 = IntType(16, signed=True)
U16 = IntType(16, signed=False)
I32 = IntType(32, signed=True)
U32 = IntType(32, signed=False)


def common_int_type(a: Type, b: Type) -> IntType:
    """Return the C "usual arithmetic conversion" result of two integer types.

    Both operands are promoted to at least 32 bits; the result is unsigned if
    either 32-bit operand is unsigned (matching the C integer promotion rules
    for the subset we support).
    """
    if not isinstance(a, IntType) or not isinstance(b, IntType):
        raise IRError(f"common_int_type on non-integers: {a!r}, {b!r}")
    bits = max(32, a.bits, b.bits)
    signed = True
    if (a.bits >= 32 and not a.signed) or (b.bits >= 32 and not b.signed):
        signed = False
    return IntType(bits, signed)


def pointer_to(ty: Type) -> PointerType:
    """Convenience constructor mirroring LLVM's ``Type::getPointerTo``."""
    return PointerType(ty)
