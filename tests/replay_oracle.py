"""Differential oracle for the timing replay: the original poll engine.

:func:`poll_replay` is the cooperative round-robin replay the simulator
started from.  Every pass it rescans every thread and executes events for
as long as each thread's head event is ready (operands timed, a free slot in
every queue it feeds); when a pass makes no progress it force-processes the
oldest blocked event.  It shares nothing with ``repro.sim.timing``'s engines
but the result types, the queue/bus models and the opcode cost function,
and it recomputes the assignment setup from scratch — so it can disagree
with the scheduler, the re-time pass and their memos.  It reads the trace
through its :class:`~repro.interp.trace.TraceEvent` view and derives block
occurrences and printed values from the events itself, so it also checks
the columns the replay index derives them from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.interp.trace import Trace
from repro.ir.instructions import Opcode
from repro.runtime.bus import MessageBus
from repro.runtime.queue import TimedQueue
from repro.sim.assignment import ExecutionDomain, ThreadAssignment
from repro.sim.timing import ThreadTimeline, TimingResult, TimingSimulator


class _Replay:
    """Mutable replay state plus the per-event executor."""

    def __init__(self, sim: TimingSimulator, trace: Trace, assignment: ThreadAssignment):
        self.sim = sim
        self.events = trace.events
        n = len(self.events)
        self.timelines: Dict[int, ThreadTimeline] = {
            t.thread_id: ThreadTimeline(spec=t) for t in assignment.threads
        }
        self.thread_of: List[int] = [0] * n
        self.per_thread: Dict[int, List[int]] = {t.thread_id: [] for t in assignment.threads}
        for i, event in enumerate(self.events):
            tid = assignment._map.get(event.inst, assignment.default_thread)
            self.thread_of[i] = tid
            self.per_thread[tid].append(i)
        consumer_sets: List[Set[int]] = [set() for _ in range(n)]
        for i, event in enumerate(self.events):
            for dep in event.deps:
                if self.thread_of[dep] != self.thread_of[i]:
                    consumer_sets[dep].add(self.thread_of[i])
        self.dyn_consumers = [tuple(sorted(s)) for s in consumer_sets]
        self.finish: List[Optional[float]] = [None] * n
        self.received: Dict[Tuple[int, int], float] = {}
        self.queues: Dict[Tuple[int, int], TimedQueue] = {}
        self.module_bus = MessageBus("module-bus", latency=sim.runtime.bus_latency)
        self.block_occurrence = block_occurrences(self.events)

    def queue_for(self, inst, consumer_thread: int) -> TimedQueue:
        key = (inst, consumer_thread)
        q = self.queues.get(key)
        if q is None:
            q = TimedQueue(
                queue_id=len(self.queues),
                depth=self.sim.runtime.queue_depth,
                latency=self.sim.runtime.queue_latency,
            )
            self.queues[key] = q
        return q

    def try_execute(self, index: int, force: bool) -> bool:
        sim = self.sim
        runtime = sim.runtime
        event = self.events[index]
        thread_id = self.thread_of[index]
        timeline = self.timelines[thread_id]
        domain = timeline.spec.domain

        # 1. Operand readiness (register dataflow + memory dataflow).
        deps = list(event.deps)
        if event.mem_dep is not None:
            deps.append(event.mem_dep)
        for dep in deps:
            if self.finish[dep] is None and not force:
                return False

        # 2. Back-pressure: every queue this event must feed needs a free slot.
        consumer_threads = self.dyn_consumers[index]
        if consumer_threads and not force:
            for consumer_thread in consumer_threads:
                if not self.queue_for(event.inst, consumer_thread).can_enqueue():
                    return False

        ready = 0.0
        for dep in deps:
            dep_finish = self.finish[dep]
            if dep_finish is None:
                dep_finish = self.timelines[self.thread_of[dep]].next_free
            dep_thread = self.thread_of[dep]
            if dep_thread == thread_id:
                ready = max(ready, dep_finish)
                continue
            if dep == event.mem_dep and dep not in event.deps:
                delay = runtime.coherency_delay
                if self.timelines[dep_thread].spec.domain != domain:
                    delay += runtime.memory_read_cycles
                ready = max(ready, dep_finish + delay)
                continue
            key = (dep, thread_id)
            got = self.received.get(key)
            if got is None:
                q = self.queue_for(self.events[dep].inst, thread_id)
                q.dequeue_cost = (
                    runtime.processor_op_cycles if domain is ExecutionDomain.SOFTWARE else 2
                )
                got = q.dequeue(max(timeline.next_free, 0.0))
                self.received[key] = got
                timeline.busy_cycles += q.dequeue_cost
                timeline.next_free = max(timeline.next_free, got)
            ready = max(ready, got)

        # 3. Issue and execute.
        if domain is ExecutionDomain.HARDWARE and not sim.hls.loop_pipelining:
            occurrence = self.block_occurrence[index]
            if occurrence != timeline.current_block:
                timeline.next_free = max(timeline.next_free, timeline.block_max_done)
                timeline.current_block = occurrence
                timeline.block_max_done = 0.0
        issue = max(ready, timeline.next_free)
        cost = sim._execution_cost(event.opcode, domain)
        done = issue + cost
        if domain is ExecutionDomain.SOFTWARE or cost > 1.0:
            timeline.next_free = done
            timeline.busy_cycles += cost
        else:
            timeline.next_free = issue + 1.0 / max(1, sim.hls.issue_width)
            timeline.busy_cycles += 1.0 / max(1, sim.hls.issue_width)

        # 4. Produce: enqueue the value for every consuming thread.
        for consumer_thread in consumer_threads:
            q = self.queue_for(event.inst, consumer_thread)
            q.enqueue_cost = (
                runtime.processor_op_cycles if domain is ExecutionDomain.SOFTWARE else 2
            )
            bus_ready = self.module_bus.request(
                done, processor=domain is ExecutionDomain.SOFTWARE
            )
            enqueue_done = q.enqueue(max(done, bus_ready - runtime.bus_latency))
            timeline.busy_cycles += q.enqueue_cost
            timeline.next_free = max(timeline.next_free, enqueue_done)

        if domain is ExecutionDomain.HARDWARE and not sim.hls.loop_pipelining:
            timeline.block_max_done = max(timeline.block_max_done, done)

        self.finish[index] = done
        timeline.events_executed += 1
        timeline.finish_time = max(timeline.finish_time, timeline.next_free, done)
        return True


def block_occurrences(events) -> List[int]:
    """Each event's dynamic block occurrence id, 1, 2, ...

    A new occurrence begins where the (function, block) changes or the
    previous event was a terminator: re-entering a loop block, and the
    rest of a block after a call returns into it, are new occurrences.
    """
    occurrence = 0
    out: List[int] = []
    prev = None
    for event in events:
        key = (event.function, id(event.inst.parent))
        if prev is None or key != prev[0] or prev[1]:
            occurrence += 1
        out.append(occurrence)
        prev = (key, event.inst.is_terminator())
    return out


def printed_values(events) -> Tuple[int, ...]:
    """The values the program printed, in program order."""
    return tuple(
        event.value
        for event in events
        if event.opcode is Opcode.CALL
        and event.value is not None
        and event.inst.callee.name == "print_int"
    )



def poll_replay(sim: TimingSimulator, trace: Trace, assignment: ThreadAssignment) -> TimingResult:
    """Replay *trace* under *assignment* with the poll engine."""
    if not len(trace):
        return TimingResult(0.0, {}, 0, 0, 0.0, 0.0, 0, 0, 0)
    replay = _Replay(sim, trace, assignment)
    events = replay.events
    per_thread = replay.per_thread
    pointer = {t: 0 for t in per_thread}
    remaining = len(events)
    forced_events = 0
    while remaining > 0:
        progress = False
        for thread_id, indices in per_thread.items():
            while pointer[thread_id] < len(indices):
                if not replay.try_execute(indices[pointer[thread_id]], force=False):
                    break
                pointer[thread_id] += 1
                remaining -= 1
                progress = True
        if not progress and remaining > 0:
            event_index = min(
                indices[pointer[t]] for t, indices in per_thread.items() if pointer[t] < len(indices)
            )
            replay.try_execute(event_index, force=True)
            pointer[replay.thread_of[event_index]] += 1
            remaining -= 1
            forced_events += 1

    queues = replay.queues.values()
    return TimingResult(
        total_cycles=max((t.finish_time for t in replay.timelines.values()), default=0.0),
        threads=replay.timelines,
        queue_count=len(replay.queues),
        queue_transfers=sum(q.total_transfers() for q in queues),
        producer_stall_cycles=sum(q.stats.producer_stall_cycles for q in queues),
        consumer_stall_cycles=sum(q.stats.consumer_stall_cycles for q in queues),
        bus_transfers=replay.module_bus.stats.transfers,
        forced_events=forced_events,
        events=len(events),
        replay_outputs=printed_values(events),
    )
