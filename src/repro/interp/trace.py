"""Dynamic execution trace, stored as columns.

Each executed IR instruction is one *event*, and the trace keeps its events
as parallel compact arrays — one entry per event — rather than as objects:

* ``inst`` — the event's static instruction number, an index into
  ``instructions`` (the numbered instruction table: instructions are
  numbered in order of first execution) and ``functions`` (each one's
  function name);
* ``deps`` / ``dep_offsets`` — *precise dynamic dependences*: event ``i``'s
  register operands were produced by events ``deps[dep_offsets[i]:
  dep_offsets[i + 1]]``;
* ``mem_dep`` — the store event whose value a load reads (memory dataflow,
  resolved exactly because the interpreter knows every address), ``-1``
  for none;
* ``address`` / ``value`` with ``present`` (bit 0: has an address, bit 1:
  has a value), so a missing field stays distinguishable from zero;
* ``block_starts`` — the event at which each dynamic basic-block occurrence
  begins, marked by the interpreter as it enters blocks.

The hybrid timing simulator replays this trace, dispatching each event to
the thread its static instruction was partitioned onto; the dependences are
what create (or forbid) overlap between threads, and cross-thread
dependences are the ones that pay queue costs.  The replay reads the
columns directly, and the artifact codec stores them as array bytes, so no
per-event object is ever built on those paths.  :class:`TraceEvent` is a
read view for tests, oracles and tools: iterating a trace, or its
``events`` list, builds the events on demand.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction, Opcode

#: ``present`` flag bits.
HAS_ADDRESS = 1
HAS_VALUE = 2


@dataclass
class TraceEvent:
    """One dynamically executed instruction (a read view of one trace row)."""

    seq: int
    inst: Instruction
    function: str
    deps: Tuple[int, ...] = ()
    mem_dep: Optional[int] = None
    address: Optional[int] = None
    value: Optional[int] = None

    @property
    def opcode(self) -> Opcode:
        return self.inst.opcode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceEvent #{self.seq} {self.opcode.value} in {self.function}>"


class Trace:
    """The columns of one dynamic trace (see the module docstring)."""

    #: Set by :meth:`append`.  A hand-built trace need not follow the static
    #: code: one of its block occurrences may repeat or skip instructions,
    #: and its operands are whatever the events name.
    hand_built = False

    def __init__(self) -> None:
        self.instructions: List[Instruction] = []
        self.functions: List[str] = []
        self.inst = array("i")
        self.deps = array("i")
        self.dep_offsets = array("i", [0])
        self.mem_dep = array("i")
        self.address = array("q")
        self.value = array("q")
        self.present = array("B")
        self.block_starts = array("i")
        self.truncated = False
        # Static instruction -> number, for recording.
        self._numbers: Dict[Instruction, int] = {}

    # -- construction -------------------------------------------------------------------

    def enter_block(self, block: Optional[BasicBlock]) -> None:
        """Mark entry into *block*: the next event may begin an occurrence.

        Every dynamic block occurrence — including re-entry of the same block
        on the next loop iteration, and the rest of a block after a call
        returns into it — is a serialisation point for a hardware FSM.  An
        occurrence begins unless the last event is a non-terminator of this
        same block (as after a call to a declaration, which records nothing).
        """
        inst = self.inst
        if inst:
            last = self.instructions[inst[-1]]
            if last.parent is block and not last.is_terminator():
                return
        self.block_starts.append(len(inst))

    def record(
        self,
        inst: Instruction,
        function: str,
        mem_dep: int = -1,
        address: Optional[int] = None,
        value: Optional[int] = None,
    ) -> int:
        """Append one event and return its sequence number.

        Its register deps must already be in ``deps`` (the interpreter
        writes them there as it reads the operands).
        """
        seq = len(self.inst)
        no = self._numbers.get(inst)
        if no is None:
            no = self._numbers[inst] = len(self.instructions)
            self.instructions.append(inst)
            self.functions.append(function)
        self.inst.append(no)
        self.dep_offsets.append(len(self.deps))
        self.mem_dep.append(mem_dep)
        flags = 0
        if address is None:
            self.address.append(0)
        else:
            self.address.append(address)
            flags = HAS_ADDRESS
        if value is None:
            self.value.append(0)
        else:
            self.value.append(value)
            flags |= HAS_VALUE
        self.present.append(flags)
        return seq

    def append(self, event: TraceEvent) -> None:
        """Append a hand-built event (its ``seq`` must be the next position).

        A block occurrence begins where the event's (function, block)
        differs from the previous event's or the previous event was a
        terminator — the same boundaries the interpreter marks.
        """
        if event.seq != len(self.inst):
            raise ValueError(f"event #{event.seq} appended at position {len(self.inst)}")
        self.hand_built = True
        self.enter_block(event.inst.parent)
        self.deps.extend(event.deps)
        self.record(
            event.inst,
            event.function,
            -1 if event.mem_dep is None else event.mem_dep,
            event.address,
            event.value,
        )

    @classmethod
    def from_columns(
        cls, instructions: List[Instruction], functions: List[str], **columns
    ) -> "Trace":
        """A trace over existing columns (the codec's decode)."""
        trace = cls()
        trace.instructions = instructions
        trace.functions = functions
        for name, column in columns.items():
            setattr(trace, name, column)
        trace._numbers = {inst: no for no, inst in enumerate(instructions)}
        return trace

    def __getstate__(self) -> Dict:
        # The replay index (see repro.sim.timing) is process-local derived
        # state, rebuilt on first replay.
        state = self.__dict__.copy()
        state.pop("_replay_index", None)
        return state

    # -- queries ------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.inst)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self._event, range(len(self.inst)))

    @property
    def events(self) -> List[TraceEvent]:
        """Every event as a :class:`TraceEvent`, built anew on each access."""
        return list(self)

    def _event(self, i: int) -> TraceEvent:
        offsets = self.dep_offsets
        no = self.inst[i]
        mem_dep = self.mem_dep[i]
        flags = self.present[i]
        return TraceEvent(
            seq=i,
            inst=self.instructions[no],
            function=self.functions[no],
            deps=tuple(self.deps[offsets[i]:offsets[i + 1]]),
            mem_dep=None if mem_dep < 0 else mem_dep,
            address=self.address[i] if flags & HAS_ADDRESS else None,
            value=self.value[i] if flags & HAS_VALUE else None,
        )

    def instruction_counts(self) -> Dict[Instruction, int]:
        """Dynamic execution count of every executed static instruction."""
        instructions = self.instructions
        return {instructions[no]: count for no, count in Counter(self.inst).items()}

