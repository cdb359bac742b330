"""Thread assignment: mapping dynamic trace events onto execution threads.

Three standard assignments reproduce the three bars of the thesis's figures:

* ``pure_software`` — every instruction runs on the single MicroBlaze;
* ``pure_hardware`` — every instruction runs in one LegUp-style hardware
  circuit (the pure-HW baseline);
* ``from_partitioning`` — the Twill hybrid: each instruction runs on the
  thread its DSWP partition was assigned to, with every software partition
  sharing the one MicroBlaze and each hardware partition getting its own
  hardware thread.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dswp.pipeline import ModulePartitioning
from repro.dswp.partitioner import PartitionKind
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.results import ExecutionDomain, ThreadSpec


class ThreadAssignment:
    """Maps static instructions (by identity) to threads."""

    def __init__(self, threads: List[ThreadSpec], default_thread: int = 0):
        self.threads = list(threads)
        self.by_id = {t.thread_id: t for t in self.threads}
        self.default_thread = default_thread
        self._map: Dict[Instruction, int] = {}  # static inst -> thread id

    # -- construction -----------------------------------------------------------------

    def assign_instruction(self, inst: Instruction, thread_id: int) -> None:
        self._map[inst] = thread_id

    # -- queries -----------------------------------------------------------------------

    def software_threads(self) -> List[ThreadSpec]:
        return [t for t in self.threads if t.is_software()]

    def hardware_threads(self) -> List[ThreadSpec]:
        return [t for t in self.threads if t.is_hardware()]

    @property
    def hardware_thread_count(self) -> int:
        return len(self.hardware_threads())

    # -- factory methods -----------------------------------------------------------------

    @classmethod
    def pure_software(cls, module: Module) -> "ThreadAssignment":
        cpu = ThreadSpec(0, ExecutionDomain.SOFTWARE, "microblaze")
        assignment = cls([cpu], default_thread=0)
        for fn in module.defined_functions():
            for inst in fn.instructions():
                assignment.assign_instruction(inst, 0)
        return assignment

    @classmethod
    def pure_hardware(cls, module: Module) -> "ThreadAssignment":
        hw = ThreadSpec(0, ExecutionDomain.HARDWARE, "legup-circuit")
        assignment = cls([hw], default_thread=0)
        for fn in module.defined_functions():
            for inst in fn.instructions():
                assignment.assign_instruction(inst, 0)
        return assignment

    @classmethod
    def from_partitioning(
        cls, module: Module, partitioning: ModulePartitioning
    ) -> "ThreadAssignment":
        """Twill hybrid assignment.

        All software partitions share thread 0 (the single MicroBlaze of the
        evaluation platform); every non-empty hardware partition of every
        function becomes its own hardware thread.
        """
        threads: List[ThreadSpec] = [ThreadSpec(0, ExecutionDomain.SOFTWARE, "microblaze")]
        next_id = 1
        hw_thread_of: Dict[Tuple[str, int], int] = {}
        for fn_name, fp in partitioning.functions.items():
            for partition in fp.partitions:
                if partition.is_hardware() and partition.instructions:
                    threads.append(
                        ThreadSpec(next_id, ExecutionDomain.HARDWARE, f"{fn_name}.hw{partition.index}")
                    )
                    hw_thread_of[(fn_name, partition.index)] = next_id
                    next_id += 1

        assignment = cls(threads, default_thread=0)
        for fn_name, fp in partitioning.functions.items():
            fn = fp.function
            for inst in fn.instructions():
                partition_index = fp.assignment.get(inst)
                if partition_index is None:
                    assignment.assign_instruction(inst, 0)
                    continue
                partition = fp.partitions[partition_index]
                if partition.is_hardware() and (fn_name, partition_index) in hw_thread_of:
                    assignment.assign_instruction(inst, hw_thread_of[(fn_name, partition_index)])
                else:
                    assignment.assign_instruction(inst, 0)
        # Functions that were not partitioned (declarations excluded) default to software.
        for fn in module.defined_functions():
            if fn.name not in partitioning.functions:
                for inst in fn.instructions():
                    assignment.assign_instruction(inst, 0)
        return assignment
