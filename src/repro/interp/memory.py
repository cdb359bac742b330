"""Byte-addressable simulated memory for the functional interpreter.

The layout mirrors the Twill runtime's unified address space (§4.5): globals
are laid out first (this is the image that would be shared between the
processor's data memory and the hardware threads' copy), followed by a
downward-growing region used for allocas.  Addresses are plain integers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import InterpreterTrap
from repro.ir.module import Module
from repro.ir.types import ArrayType, IntType, PointerType, Type
from repro.ir.values import GlobalVariable

GLOBAL_BASE = 0x1000
STACK_BASE = 0x8000_0000
ALIGNMENT = 4


def _align(value: int, alignment: int = ALIGNMENT) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


class SimulatedMemory:
    """Sparse byte-addressable memory with typed scalar accessors."""

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}
        self.global_addresses: Dict[str, int] = {}
        self.global_sizes: Dict[str, int] = {}
        self._global_top = GLOBAL_BASE
        self._stack_top = STACK_BASE
        self.load_count = 0
        self.store_count = 0

    # -- layout ------------------------------------------------------------------

    def load_globals(self, module: Module) -> None:
        """Assign addresses to every global and write its initializer."""
        for g in module.globals.values():
            self.allocate_global(g)

    def allocate_global(self, g: GlobalVariable) -> int:
        size = max(ALIGNMENT, g.value_type.size_bytes())
        address = self._global_top
        self.global_addresses[g.name] = address
        self.global_sizes[g.name] = size
        self._global_top = _align(self._global_top + size)
        element = g.value_type.flat_element() if isinstance(g.value_type, ArrayType) else g.value_type
        element_size = element.size_bytes() if isinstance(element, IntType) else 4
        for i, value in enumerate(g.flat_initializer()):
            self.store_int(address + i * element_size, value, element_size)
        return address

    def global_address(self, name: str) -> int:
        return self.global_addresses[name]

    def allocate_stack(self, ty: Type) -> int:
        """Bump-allocate one object of type ``ty`` in the stack region."""
        size = max(ALIGNMENT, _align(ty.size_bytes() if not ty.is_void() else ALIGNMENT))
        address = self._stack_top
        self._stack_top = _align(self._stack_top + size)
        return address

    # -- raw byte access ------------------------------------------------------------

    def store_int(self, address: int, value: int, size: int) -> None:
        if address <= 0:
            raise InterpreterTrap(f"store to invalid address {address:#x}")
        value &= (1 << (8 * size)) - 1
        for i in range(size):
            self._bytes[address + i] = (value >> (8 * i)) & 0xFF
        self.store_count += 1

    def load_int(self, address: int, size: int, signed: bool) -> int:
        if address <= 0:
            raise InterpreterTrap(f"load from invalid address {address:#x}")
        value = 0
        for i in range(size):
            value |= self._bytes.get(address + i, 0) << (8 * i)
        if signed and value >= (1 << (8 * size - 1)):
            value -= 1 << (8 * size)
        self.load_count += 1
        return value

    # -- typed access ------------------------------------------------------------------

    def store_typed(self, address: int, value: int, ty: Type) -> None:
        if isinstance(ty, IntType):
            self.store_int(address, value, ty.size_bytes())
        elif isinstance(ty, PointerType):
            self.store_int(address, value, 4)
        else:
            raise InterpreterTrap(f"cannot store value of type {ty!r}")

    def load_typed(self, address: int, ty: Type) -> int:
        if isinstance(ty, IntType):
            return self.load_int(address, ty.size_bytes(), ty.signed)
        if isinstance(ty, PointerType):
            return self.load_int(address, 4, signed=False)
        raise InterpreterTrap(f"cannot load value of type {ty!r}")

    # -- debugging helpers ----------------------------------------------------------------

    def dump_global(self, g: GlobalVariable) -> List[int]:
        """Read back the current contents of a global as a flat int list."""
        address = self.global_addresses[g.name]
        if isinstance(g.value_type, ArrayType):
            element = g.value_type.flat_element()
            count = g.value_type.flat_count()
        else:
            element = g.value_type
            count = 1
        if not isinstance(element, IntType):
            raise InterpreterTrap(f"cannot dump global of type {g.value_type!r}")
        size = element.size_bytes()
        return [self.load_int(address + i * size, size, element.signed) for i in range(count)]
