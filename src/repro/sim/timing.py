"""Trace-replay timing simulator.

The simulator replays the dynamic instruction trace under a thread
assignment.  Each thread consumes its own slice of the trace in order;
cross-thread value flow goes through FIFO queues (one per produced static
value and consuming thread — exactly the DSWP queue granularity; the
reference ``TimedQueue`` in ``tests/reference_runtime.py`` states the
model event by event), which is where queue latency,
queue-depth back-pressure and the processor stream-interface overhead enter
the model.

Per-domain execution:

* **software threads** issue strictly in order; every instruction occupies
  the MicroBlaze for its full cycle cost, and every queue transfer costs the
  five-cycle stream-interface overhead (§4.5);
* **hardware threads** issue in order but at up to ``issue_width``
  operations per cycle (the ILP LegUp exploits); multi-cycle operations are
  pipelined, so they occupy an issue slot but deliver their result after the
  full latency; loads/stores pay the memory-bus cost plus a coherency delay
  when the producing store happened in the other domain (§4.1/§4.5).

Record once, re-time many
-------------------------

A multi-thread replay is two passes.  The first,
:meth:`TimingSimulator._schedule`, decides the order in which events run: the visit order of the original
cooperative round-robin poll loop (``tests/replay_oracle.py`` keeps that
loop as the differential oracle), found by a readiness-driven scheduler.
Threads are visited through a heap keyed by (pass, thread position); a
thread that blocks (an operand's producing event not yet run, or a full
queue it must enqueue into) parks on a wake list for exactly that event or
queue and re-enters the heap when it resolves.  Every one of those tests
reads *whether* an event has run or *how many* entries a queue holds —
never a time — so the order is a function of (trace, assignment,
``queue_depth``) alone, and the pass records it without timing anything: a
flat array of (thread, first, end) visits plus the order in which queues
came into being.

The second pass, :meth:`TimingSimulator._retime`, times the recording under
the simulator's configuration with one flat loop: no heap, no wake lists,
no probes, and queues reduced to per-queue completion-time lists.  The
recording is memoised per queue depth, so every later replay of the same
trace under an assignment of the same content and the same depth — each
latency, bus, cost-model and HLS point of a sweep — runs the second pass
only.  The float operations run in the poll loop's order with its int/float
tie rules, so the bytes match.

The outcome of a replay is memoised as well, keyed by exactly what the
replay reads of the configuration: the queue depth and latency, bus
latency, coherency delay, memory read cycles and processor-op cycles (each
with its type: ``2`` and ``2.0`` can give different bytes), the HLS issue
width and loop pipelining, and the content of both domains' opcode-cost
tables, which folds in the memory write cycles and any custom cost model.
A repeated (trace, assignment content, config key) — a sweep point at
the compile's own config, an explore or split point equal to an earlier
one, each re-run of a baseline — runs neither pass: the memo holds plain
values, and every hit builds a fresh result from the caller's own thread
specs, so no caller shares a mutable object.  The setup, its schedules and
its multi-thread results live on the per-assignment setup, bounded by the
LRU of :data:`_SETUP_MEMO_LIMIT` setups; the setups and the single-thread
results live on the trace's process-local :class:`_TraceIndex`.

Both passes read the trace's columns (see :mod:`repro.interp.trace`): the
static-number column maps events to threads, and the index adds only the
per-event operand tuples, block occurrence ids and printed values,
derived once per trace.  No replay builds a per-event object, nor a tuple
per operand: queue state is kept per consumer thread, keyed by integers
(the producing event, or the producer's static number).  Each thread's
finish time is taken once per visit, not per event: its ``next_free``
only grows, and an FSM thread's every result is done by its
``next_free`` after a block boundary or by the open block's maximum.

Replays whose events all land on a single thread (the pure-software and
pure-hardware baselines) take straight-line fast paths with no queue/bus
machinery at all.  The pure-hardware one is block-granular: its FSM opens a
block occurrence only once the previous one has drained, so an occurrence
is its start time plus offsets its signature fixes, and each signature is
timed once (see :meth:`TimingSimulator._replay_single_hardware`).  Should a
cyclic wait ever leave the scheduler with no runnable thread, it forces the
oldest blocked event through, as the poll loop did, and counts it in
``forced_events``.
"""

from __future__ import annotations

from array import array
from collections import Counter
from heapq import heappop, heappush
from itertools import chain, compress, count, islice, repeat
from operator import sub
from typing import Dict, List, Optional, Set, Tuple

from repro import perf
from repro.config import HLSConfig, RuntimeConfig
from repro.costmodel.hardware import HardwareCostModel
from repro.costmodel.software import SoftwareCostModel
from repro.interp.trace import HAS_VALUE, Trace
from repro.ir.instructions import Opcode
from repro.results import ExecutionDomain, ThreadSpec, ThreadTimeline, TimingResult
from repro.sim.assignment import ThreadAssignment

# Thread visit states for the readiness scheduler.
_QUEUED = 0      # in the heap, will be visited
_BLOCKED = 1     # parked on a wake list (an operand or a queue dequeue)
_DONE = 2        # all events executed

#: Distinct assignments whose setup (with its schedules and results) one
#: trace keeps; the least recently used is dropped beyond this.
_SETUP_MEMO_LIMIT = 8

#: A memoised replay outcome, plain values only: (total cycles, (queue
#: count, queue transfers, producer stall, consumer stall, bus transfers,
#: forced events), each timeline's fields after its spec, in thread order).
_Snapshot = Tuple[float, Tuple, Tuple[Tuple, ...]]


class _TraceIndex:
    """Replay precomputation that depends on the *trace* alone.

    A report replays the same trace many times — three baseline assignments,
    every split-sweep fraction, every explore candidate.  The trace's own
    columns serve every replay as they are (``inst_no`` is the trace's
    static-number column, ``instructions`` its static instruction table);
    this index adds only what the replay loops want in another shape,
    derived once with C-level passes over the columns:

    * ``deps_seq`` — each event's operands as one tuple, register deps
      first and the memory dep last, with ``mem_tail`` flagging a memory
      dep that takes the coherency path (one that is not also a register
      dep), and ``loads`` listing the events that have a memory dep;
    * ``block_occurrence`` — each event's dynamic block occurrence id
      (1, 2, ...), expanded from the trace's ``block_starts``;
    * ``signatures`` — each block occurrence's signature id and each
      signature's first occurrence, built by :meth:`block_signatures` on the
      first block-granular pure-hardware replay;
    * ``static_opcodes``/``opcode_counts`` and ``prints`` — the opcode of
      each static instruction, dynamic counts per opcode, and the printed
      values in program order.

    It is cached on the trace object (see :func:`_trace_index`); a pickled
    trace leaves it behind.

    ``cost_arrays`` memoises per-event cost vectors keyed by the *content*
    of the opcode-cost table (each opcode's resolved cost, in
    ``opcode_counts`` order), so sweeps that vary queue geometry — which
    never changes execution costs — reuse one vector, while a sweep that
    does change a cost (say memory read cycles) gets its own.  ``setups``
    memoises, per assignment content, the :class:`_ReplaySetup` that carries
    the recorded schedules and multi-thread results; ``results`` memoises
    the single-thread replays, keyed by (thread specs, config key).
    """

    __slots__ = (
        "n",
        "inst_no",
        "instructions",
        "static_opcodes",
        "deps_seq",
        "mem_tail",
        "mem_dep",
        "loads",
        "block_starts",
        "block_occurrence",
        "signatures",
        "hand_built",
        "opcode_counts",
        "prints",
        "cost_arrays",
        "setups",
        "results",
    )

    def __init__(self, trace: Trace):
        n = self.n = len(trace)
        inst_no = self.inst_no = trace.inst
        statics = self.instructions = trace.instructions
        self.static_opcodes = [inst.opcode for inst in statics]
        self.cost_arrays: Dict[Tuple[float, ...], List[float]] = {}
        self.setups: Dict[Tuple, _ReplaySetup] = {}
        self.results: Dict[Tuple, _Snapshot] = {}

        offsets = trace.dep_offsets
        deps_seq = list(
            map(tuple, map(trace.deps.__getitem__, map(slice, offsets, islice(offsets, 1, None))))
        )
        mem_dep = self.mem_dep = trace.mem_dep
        mem_tail = bytearray(n)
        loads = self.loads = array("i", compress(range(n), map((-1).__lt__, mem_dep)))
        for i in loads:
            deps = deps_seq[i]
            dep = mem_dep[i]
            deps_seq[i] = deps + (dep,)
            mem_tail[i] = dep not in deps
        self.deps_seq = deps_seq
        self.mem_tail = mem_tail

        starts = self.block_starts = trace.block_starts
        lengths = map(sub, chain(islice(starts, 1, None), (n,)), starts)
        self.block_occurrence = array("i", chain.from_iterable(map(repeat, count(1), lengths)))
        self.signatures: Optional[Tuple[array, array]] = None
        self.hand_built = trace.hand_built

        counts: Dict[Opcode, int] = {}
        for no, k in Counter(inst_no).items():
            opcode = self.static_opcodes[no]
            counts[opcode] = counts.get(opcode, 0) + k
        self.opcode_counts = counts

        # The observable output stream commits in program (trace) order: the
        # runtime serialises side effects, so finish times stay timing
        # metadata only and never reorder what the program prints.
        is_print = bytes(
            inst.opcode is Opcode.CALL and inst.callee.name == "print_int" for inst in statics
        )
        present, value = trace.present, trace.value
        self.prints: Tuple[int, ...] = tuple(
            value[i]
            for i in compress(range(n), map(is_print.__getitem__, inst_no))
            if present[i] & HAS_VALUE
        )

    def block_signatures(self) -> Tuple[array, array]:
        """Each block occurrence's signature id, and each signature's first occurrence.

        A signature is (first static number, length, the occurrence's memory
        deps on its own events as (offset, dep offset) pairs).  An occurrence
        is a straight-line run of one block from the point the interpreter
        entered it (see :meth:`~repro.interp.trace.Trace.enter_block`), so its
        first static number and length fix its instructions, and the static
        code fixes which register operands come from inside it; only the
        store a load reads can differ between two runs of the same code.
        Occurrences with one signature therefore have one in-occurrence
        structure: the same costs and the same dependences on each other.
        A hand-built trace (:meth:`~repro.interp.trace.Trace.append`) keeps
        no such promise, so its replays never ask for signatures.
        """
        if self.signatures is None:
            starts = self.block_starts
            lengths = map(sub, chain(islice(starts, 1, None), (self.n,)), starts)
            keys = list(zip(map(self.inst_no.__getitem__, starts), lengths))
            occurrence = self.block_occurrence
            mem_dep = self.mem_dep
            for i in self.loads:
                k = occurrence[i] - 1
                start = starts[k]
                dep = mem_dep[i]
                if dep >= start:
                    keys[k] += (i - start, dep - start)
            ids: Dict[Tuple[int, ...], int] = {}
            signature_of = array("i")
            first_seen = array("i")
            for k, key in enumerate(keys):
                sid = ids.get(key)
                if sid is None:
                    sid = ids[key] = len(first_seen)
                    first_seen.append(k)
                signature_of.append(sid)
            self.signatures = (signature_of, first_seen)
        return self.signatures

    def setup(self, assignment: ThreadAssignment) -> "_ReplaySetup":
        """The memoised :class:`_ReplaySetup` for *assignment*'s content.

        The key is what the setup is a function of: the thread of each
        instruction the trace executes (as flat bytes, in static-number
        order) and the thread specs.  Assignments that differ only on
        instructions the trace never runs share a setup.
        """
        amap_get = assignment._map.get
        default_thread = assignment.default_thread
        thread_map = [amap_get(inst, default_thread) for inst in self.instructions]
        key = (array("i", thread_map).tobytes(), tuple(assignment.threads))
        setups = self.setups
        setup = setups.pop(key, None)
        if setup is None:
            setup = _ReplaySetup(self, assignment.threads, thread_map)
            if len(setups) >= _SETUP_MEMO_LIMIT:
                del setups[next(iter(setups))]
        setups[key] = setup
        return setup


class _ReplaySetup:
    """Replay precomputation that depends on the trace and the assignment.

    ``thread_of`` maps each event to its thread, ``per_thread`` lists each
    thread's events in program order, and ``dyn_consumers`` names, for each
    event, the other threads that read its value (the queues it feeds).
    ``local`` flags the events with neither: every operand comes from the
    event's own thread (so it is already timed when the thread reaches the
    event) and no queue is fed, so they never block and are timed without
    queues or the bus; ``stops`` lists, per thread, the positions of its
    other events — the only ones the scheduler has to look at.
    ``schedules`` holds the recorded visit order per queue depth (see
    :class:`_Schedule`), ``results`` the replay's outcome per config key.
    """

    __slots__ = (
        "thread_of", "per_thread", "dyn_consumers", "local", "stops", "populated", "schedules",
        "results",
    )

    def __init__(self, index: _TraceIndex, threads: List[ThreadSpec], thread_map: List[int]):
        thread_of = list(map(thread_map.__getitem__, index.inst_no))
        n = len(thread_of)

        # One pass over the operands: which threads consume each event's
        # value across threads, and which events read another thread's value.
        mem_tail = index.mem_tail
        local = bytearray(b"\x01") * n
        consumer_sets: Dict[int, Set[int]] = {}
        for i, dseq in enumerate(index.deps_seq):
            my_thread = thread_of[i]
            for dep in dseq:
                if thread_of[dep] != my_thread:
                    local[i] = 0
                    # A memory-only operand (the tail) reaches no queue.
                    if not mem_tail[i] or dep != dseq[-1]:
                        s = consumer_sets.get(dep)
                        if s is None:
                            s = consumer_sets[dep] = set()
                        s.add(my_thread)
        dyn_consumers: List[Tuple[int, ...]] = [()] * n
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for i, s in consumer_sets.items():
            local[i] = 0
            consumers = tuple(sorted(s))
            dyn_consumers[i] = shared.setdefault(consumers, consumers)

        buckets: Dict[int, List[int]] = {t.thread_id: [] for t in threads}
        stops: Dict[int, List[int]] = {tid: [] for tid in buckets}
        for i, tid in enumerate(thread_of):
            indices = buckets[tid]
            if not local[i]:
                stops[tid].append(len(indices))
            indices.append(i)

        self.thread_of = array("i", thread_of)
        self.per_thread: Dict[int, array] = {
            tid: array("i", indices) for tid, indices in buckets.items()
        }
        self.dyn_consumers = dyn_consumers
        self.local = local
        self.stops: Dict[int, array] = {tid: array("i", stop) for tid, stop in stops.items()}
        self.populated = [tid for tid, indices in buckets.items() if indices]
        self.schedules: Dict[int, _Schedule] = {}
        self.results: Dict[Tuple, _Snapshot] = {}


class _Schedule:
    """The scheduler's visit order for one (trace, assignment, queue depth).

    ``visits`` is a flat ``array('i')`` of (thread id, first, end) triples:
    each visit executes ``per_thread[tid][first:end]`` in order.
    ``queue_keys`` are the (producer static number, consumer thread) keys
    of the queues in the order they came into being — the order the
    result's per-queue stall sums run in.  ``forced_events`` counts the
    events the cyclic-wait fallback forced (each is a visit of its own).
    """

    __slots__ = ("visits", "queue_keys", "forced_events")

    def __init__(
        self, visits: array, queue_keys: Tuple[Tuple[int, int], ...], forced_events: int
    ):
        self.visits = visits
        self.queue_keys = queue_keys
        self.forced_events = forced_events


def _trace_index(trace: Trace) -> _TraceIndex:
    """The trace's cached :class:`_TraceIndex`, built on first replay."""
    index = getattr(trace, "_replay_index", None)
    if index is None:
        index = trace._replay_index = _TraceIndex(trace)
    return index


class TimingSimulator:
    """Replays a trace under a thread assignment and runtime configuration."""

    def __init__(
        self,
        runtime: Optional[RuntimeConfig] = None,
        hls: Optional[HLSConfig] = None,
        software: Optional[SoftwareCostModel] = None,
        hardware: Optional[HardwareCostModel] = None,
    ):
        self.runtime = runtime or RuntimeConfig()
        self.hls = hls or HLSConfig()
        self.runtime.validate()
        self.hls.validate()
        self.software = software or SoftwareCostModel()
        self.hardware = hardware or HardwareCostModel()

    # -- public API ------------------------------------------------------------------

    def simulate(self, trace: Trace, assignment: ThreadAssignment) -> TimingResult:
        n = len(trace)
        if not n:
            return TimingResult(0.0, {}, 0, 0, 0.0, 0.0, 0, 0, 0)

        index = _trace_index(trace)
        specs = {t.thread_id: t for t in assignment.threads}
        costs = {domain: self._costs(index, domain) for domain in ExecutionDomain}
        key = self._config_key(costs)
        if len(specs) == 1:
            setup = None
            memo = index.results
            key = (tuple(assignment.threads), key)
        else:
            setup = index.setup(assignment)
            memo = setup.results
        snapshot = memo.get(key)
        if snapshot is None:
            snapshot = memo[key] = self._replay(index, setup, specs, costs)
        total_cycles, stats, fields = snapshot
        timelines = {
            tid: ThreadTimeline(spec, *values) for (tid, spec), values in zip(specs.items(), fields)
        }
        return TimingResult(total_cycles, timelines, *stats, n, index.prints)

    def _config_key(self, costs: Dict[ExecutionDomain, Tuple[float, ...]]) -> Tuple:
        """What a replay reads of this simulator's configuration, as a memo key.

        Each scalar keeps its type (``2`` and ``2.0`` can give different
        result bytes); the cost tables go in by content.
        """
        runtime, hls = self.runtime, self.hls
        scalars = (
            runtime.queue_depth,
            runtime.queue_latency,
            runtime.bus_latency,
            runtime.coherency_delay,
            runtime.memory_read_cycles,
            runtime.processor_op_cycles,
            hls.issue_width,
            hls.loop_pipelining,
        )
        return (scalars, tuple(map(type, scalars)), *costs.values())

    def _replay(
        self,
        index: _TraceIndex,
        setup: Optional[_ReplaySetup],
        specs: Dict[int, ThreadSpec],
        costs: Dict[ExecutionDomain, Tuple[float, ...]],
    ) -> _Snapshot:
        """Replay the trace (a memo miss) and snapshot the outcome.

        *setup* is ``None`` for a single-thread assignment (the pure-SW /
        pure-HW baselines): every event lands on the one thread, so the
        per-event assignment/consumer setup is skipped entirely — no queues,
        no bus.
        """
        timelines = {tid: ThreadTimeline(spec=spec) for tid, spec in specs.items()}
        # The two single-thread cases report their zero stalls with different
        # types (0.0 and 0); both are kept, since a result's JSON shows them.
        if setup is None:
            self._replay_single(index, next(iter(timelines.values())), costs)
            stats: Tuple = (0, 0, 0.0, 0.0, 0, 0)
        elif len(setup.populated) == 1:
            self._replay_single(index, timelines[setup.populated[0]], costs)
            stats = (0, 0, 0, 0, 0, 0)
        else:
            depth = self.runtime.queue_depth
            schedule = setup.schedules.get(depth)
            if schedule is None:
                schedule = setup.schedules[depth] = self._schedule(index, setup)
            stats = self._retime(index, setup, schedule, timelines, costs)
            stats += (schedule.forced_events,)
        return (
            max((t.finish_time for t in timelines.values()), default=0.0),
            stats,
            tuple(
                (t.next_free, t.busy_cycles, t.events_executed, t.finish_time,
                 t.current_block, t.block_max_done)
                for t in timelines.values()
            ),
        )

    # -- shared per-event precomputation ----------------------------------------------

    def _costs(self, index: _TraceIndex, domain: ExecutionDomain) -> Tuple[float, ...]:
        """Each traced opcode's cost in *domain*, in ``index.opcode_counts`` order."""
        return tuple(self._execution_cost(opcode, domain) for opcode in index.opcode_counts)

    def _cost_array(self, index: _TraceIndex, costs: Tuple[float, ...]) -> List[float]:
        """Per-event cost vector, memoized on the trace by cost-table *content*."""
        array_ = index.cost_arrays.get(costs)
        if array_ is None:
            table = dict(zip(index.opcode_counts, costs))
            static_costs = [table[op] for op in index.static_opcodes]
            array_ = index.cost_arrays[costs] = list(map(static_costs.__getitem__, index.inst_no))
        return array_

    # -- single-thread fast paths ------------------------------------------------------

    def _replay_single(
        self,
        index: _TraceIndex,
        timeline: ThreadTimeline,
        costs: Dict[ExecutionDomain, Tuple[float, ...]],
    ) -> None:
        if timeline.spec.domain is ExecutionDomain.SOFTWARE:
            self._replay_single_software(index, timeline, costs[ExecutionDomain.SOFTWARE])
        else:
            self._replay_single_hardware(index, timeline, costs[ExecutionDomain.HARDWARE])

    def _replay_single_software(
        self, index: _TraceIndex, timeline: ThreadTimeline, costs: Tuple[float, ...]
    ) -> None:
        """Pure-software replay: strict in-order issue on one thread.

        With every event on one software thread, each operand's producing
        event finished at or before the thread's current ``next_free`` (the
        timeline is monotone), so ``issue == next_free`` always and the whole
        replay degenerates to one float accumulation.  Costs are integral
        cycle counts, so that accumulation stays exact at every step and the
        order-free counted sum below is bit-identical to it; should a custom
        cost model introduce fractional costs, the sequential loop preserves
        the reference engine's exact ordering.
        """
        if all(cost.is_integer() for cost in costs):
            total = float(
                sum(int(cost) * count for cost, count in zip(costs, index.opcode_counts.values()))
            )
        else:
            total = 0.0
            for cost in self._cost_array(index, costs):
                total += cost
        timeline.next_free = total
        timeline.busy_cycles = total
        timeline.events_executed = index.n
        timeline.finish_time = total

    def _replay_single_hardware(
        self, index: _TraceIndex, timeline: ThreadTimeline, costs: Tuple[float, ...]
    ) -> None:
        """Pure-hardware replay: one FSM thread, no queues, no bus.

        The FSM opens a block occurrence only once the previous one has
        drained, so every operand from an earlier occurrence is done by the
        occurrence's start ``S``.  What the occurrence does is then ``S``
        plus offsets its signature fixes (see
        :meth:`_TraceIndex.block_signatures`): the ``next_free`` it leaves,
        the busy cycles it adds and its latest completion.  Each signature
        is timed once from its first occurrence, and each occurrence costs
        two additions and a ``max``.  That is exact only when no sum rounds:
        the issue width must be a power of two, every cost a multiple of its
        slot, and no time may reach 2**50 slots.  Otherwise, under loop
        pipelining (no block boundaries) and for a hand-built trace, the
        per-event loop runs.
        """
        width = max(1, self.hls.issue_width)
        units = [cost * width for cost in costs]
        if (
            self.hls.loop_pipelining
            or index.hand_built
            or width != int(width)
            or int(width) & (int(width) - 1)
            or not all(unit.is_integer() for unit in units)
            or index.n * max(units + [1.0]) >= 2 ** 50
        ):
            self._replay_hardware_events(index, timeline, costs)
            return

        deps_seq = index.deps_seq
        inst_no = index.inst_no
        starts = index.block_starts
        table = dict(zip(index.opcode_counts, costs))
        static_costs = [table[op] for op in index.static_opcodes]
        slot = 1.0 / width
        signature_of, first_seen = index.block_signatures()
        effects: List[Tuple[float, float, float]] = []
        for k in first_seen:
            # The occurrence timed from S = 0: only its own events' finishes
            # can hold an issue past its start.
            start = starts[k]
            end = starts[k + 1] if k + 1 < len(starts) else index.n
            finish: List[float] = []
            next_free = 0.0
            busy = 0.0
            peak = 0.0
            for i in range(start, end):
                ready = 0.0
                for dep in deps_seq[i]:
                    if dep >= start:
                        f = finish[dep - start]
                        if f > ready:
                            ready = f
                issue = ready if ready >= next_free else next_free
                cost = static_costs[inst_no[i]]
                done = issue + cost
                if cost > 1.0:
                    next_free = done
                    busy += cost
                else:
                    next_free = issue + slot
                    busy += slot
                if done > peak:
                    peak = done
                finish.append(done)
            effects.append((next_free, busy, peak))

        next_free = timeline.next_free
        busy = timeline.busy_cycles
        block_max = timeline.block_max_done
        for sid in signature_of:
            if block_max > next_free:
                next_free = block_max
            end, spent, peak = effects[sid]
            block_max = next_free + peak
            next_free += end
            busy += spent
        timeline.next_free = next_free
        timeline.busy_cycles = busy
        timeline.events_executed = index.n
        timeline.finish_time = block_max if block_max > next_free else next_free
        timeline.current_block = len(starts)
        timeline.block_max_done = block_max

    def _replay_hardware_events(
        self, index: _TraceIndex, timeline: ThreadTimeline, costs: Tuple[float, ...]
    ) -> None:
        """:meth:`_replay_single_hardware` event by event, for any configuration."""
        n = index.n
        deps_seq = index.deps_seq
        block_occurrence = index.block_occurrence
        cost_arr = self._cost_array(index, costs)
        loop_pipe = self.hls.loop_pipelining
        slot = 1.0 / max(1, self.hls.issue_width)
        finish = [0.0] * n
        next_free = 0.0
        busy = 0.0
        finish_time = 0.0
        cur_block = timeline.current_block
        block_max = timeline.block_max_done
        for i in range(n):
            ready = 0.0
            for dep in deps_seq[i]:
                f = finish[dep]
                if f > ready:
                    ready = f
            if not loop_pipe:
                occ = block_occurrence[i]
                if occ != cur_block:
                    if block_max > next_free:
                        next_free = block_max
                    cur_block = occ
                    block_max = 0.0
            # Ties must keep max()'s first argument so int/float types (and
            # hence serialised bytes) match the reference engine exactly.
            issue = ready if ready >= next_free else next_free
            cost = cost_arr[i]
            done = issue + cost
            if cost > 1.0:
                next_free = done
                busy += cost
            else:
                next_free = issue + slot
                busy += slot
            if not loop_pipe:
                if done > block_max:
                    block_max = done
            elif done > finish_time:
                finish_time = done
            finish[i] = done
        # next_free only grows, and an FSM's every earlier ``done`` is at most
        # its next_free or the open block's maximum: the finish time is the
        # larger of the two, taken once.
        if next_free > finish_time:
            finish_time = next_free
        if not loop_pipe and block_max > finish_time:
            finish_time = block_max
        timeline.next_free = next_free
        timeline.busy_cycles = busy
        timeline.events_executed = n
        timeline.finish_time = finish_time
        timeline.current_block = cur_block
        timeline.block_max_done = block_max

    # -- readiness-driven scheduler -----------------------------------------------------

    def _schedule(self, index: _TraceIndex, setup: _ReplaySetup) -> _Schedule:
        """Record the poll loop's visit order without timing anything.

        A thread sits in a heap keyed by ``(pass, position)`` — the cyclic
        round-robin coordinates of the poll loop.  When its head event
        blocks it registers on a wake list (the first operand not yet run,
        or the first full queue it must feed) and leaves the heap; resolving
        that dependency re-queues it at the coordinate the poll loop would
        next have retried it.  Failed probes never change anything, so
        skipping them keeps the poll loop's exact order.

        Only counts are tracked: which events have run (each thread runs
        its events in order, so an event has run once its thread's last
        executed event is at or past it), and how many values each queue
        has taken and given.  Local events (see :class:`_ReplaySetup`) can
        never block, so a visit jumps from one non-local event to the next.
        Wakes are applied when the visit ends; a wake only pushes a thread
        at a key fixed by the visit's coordinates, so when it happens inside
        the visit does not matter.

        If no thread can run (a cyclic wait), the oldest blocked event is
        forced through, exactly as the poll loop's no-progress fallback
        does, and every blocked thread gets a fresh pass.  Being the oldest
        head event, it reads only operands that have run (an unrun operand
        would be older, and so would its thread's head); what forcing
        overrides is a full queue, which it overfills.
        """
        queue_depth = self.runtime.queue_depth
        thread_of = setup.thread_of
        per_thread = setup.per_thread
        stops = setup.stops
        dyn_consumers = setup.dyn_consumers
        inst_no = index.inst_no
        deps_seq = index.deps_seq
        mem_tail = index.mem_tail

        order = setup.populated
        pos_of = {tid: k for k, tid in enumerate(order)}
        pointer: Dict[int, int] = {tid: 0 for tid in order}
        cursor: Dict[int, int] = {tid: 0 for tid in order}
        # Per thread: the trace index of its last executed event.
        last_run: Dict[int, int] = {tid: -1 for tid in order}
        state: Dict[int, int] = {tid: _QUEUED for tid in order}
        heap: List[Tuple[int, int, int]] = [(0, k, tid) for k, tid in enumerate(order)]
        # Already heap-ordered (ascending position, one pass), no heapify needed.
        dep_waiters: Dict[int, List[int]] = {}
        waited_in: Dict[int, Set[int]] = {tid: set() for tid in order}
        # Per consumer thread: producer static number -> [enqueued, dequeued,
        # threads waiting for a slot]; queue_keys lists the queues in the
        # order they come into being.
        counts: Dict[int, Dict[int, List]] = {tid: {} for tid in order}
        queue_keys: List[Tuple[int, int]] = []
        # Per consumer thread: the events whose values it has dequeued.
        received: Dict[int, Set[int]] = {tid: set() for tid in order}
        visits = array("i")
        record = visits.extend
        remaining = len(deps_seq)
        forced_events = 0

        def wake(waiters: List[int], cur_pass: int, cur_pos: int) -> None:
            for w in waiters:
                if state[w] == _BLOCKED:
                    wpos = pos_of[w]
                    if wpos > cur_pos:
                        heappush(heap, (cur_pass, wpos, w))
                    else:
                        heappush(heap, (cur_pass + 1, wpos, w))
                    state[w] = _QUEUED

        def queue(producer: int, consumer_thread: int) -> List:
            """The count of queue (*producer*, *consumer_thread*), made on first use."""
            count = counts[consumer_thread].get(producer)
            if count is None:
                count = counts[consumer_thread][producer] = [0, 0, None]
                queue_keys.append((producer, consumer_thread))
            return count

        def force(i: int, tid: int) -> None:
            """Count forced event *i*'s queue traffic, dequeues first."""
            dseq = deps_seq[i]
            tail = dseq[-1] if mem_tail[i] else -1
            got = received[tid]
            for dep in dseq:
                if dep != tail and thread_of[dep] != tid and dep not in got:
                    got.add(dep)
                    queue(inst_no[dep], tid)[1] += 1
            for consumer_thread in dyn_consumers[i]:
                queue(inst_no[i], consumer_thread)[0] += 1

        last_pass = 0
        while remaining > 0:
            if not heap:
                event_index = min(
                    per_thread[t][pointer[t]] for t in order if pointer[t] < len(per_thread[t])
                )
                tid = thread_of[event_index]
                ptr = pointer[tid]
                force(event_index, tid)  # a forced dequeue wakes nobody
                record((tid, ptr, ptr + 1))
                pointer[tid] = ptr + 1
                stop = stops[tid]
                if cursor[tid] < len(stop) and stop[cursor[tid]] == ptr:
                    cursor[tid] += 1
                last_run[tid] = event_index
                remaining -= 1
                forced_events += 1
                dep_waiters.pop(event_index, None)
                waited_in[tid].discard(event_index)
                resume = [
                    t for t in order
                    if pointer[t] < len(per_thread[t]) and state[t] != _QUEUED
                ]
                for t in resume:
                    state[t] = _BLOCKED
                wake(resume, last_pass, len(order))
                continue

            cur_pass, cur_pos, tid = heappop(heap)
            last_pass = cur_pass
            indices = per_thread[tid]
            stop = stops[tid]
            n_stops = len(stop)
            first = pointer[tid]
            c = cursor[tid]
            got = received[tid]
            my_queues = counts[tid]
            drained: List[List] = []
            blocked = False
            while c < n_stops:
                ptr = stop[c]
                i = indices[ptr]
                dseq = deps_seq[i]
                # 1. Operand readiness: only another thread's operand can be
                # pending (the thread's own ran before it, in order).
                waiting_on = -1
                for dep in dseq:
                    dep_thread = thread_of[dep]
                    if dep_thread != tid and dep > last_run[dep_thread]:
                        waiting_on = dep
                        break
                if waiting_on >= 0:
                    dep_waiters.setdefault(waiting_on, []).append(tid)
                    waited_in[thread_of[waiting_on]].add(waiting_on)
                    blocked = True
                    break
                # 2. Back-pressure: every queue this event feeds needs a slot.
                fed = []
                full = None
                producer = inst_no[i]
                for consumer_thread in dyn_consumers[i]:
                    count = counts[consumer_thread].get(producer)
                    if count is None:
                        count = queue(producer, consumer_thread)
                    if count[0] >= queue_depth and count[0] - queue_depth >= count[1]:
                        full = count
                        break
                    fed.append(count)
                if full is not None:
                    if full[2] is None:
                        full[2] = []
                    full[2].append(tid)
                    blocked = True
                    break
                # 3. Run it: the first read of another thread's value takes
                # it from that value's queue; then the event feeds its own.
                tail = dseq[-1] if mem_tail[i] else -1
                for dep in dseq:
                    if dep != tail and thread_of[dep] != tid and dep not in got:
                        got.add(dep)
                        count = my_queues.get(inst_no[dep])
                        if count is None:
                            count = queue(inst_no[dep], tid)
                        count[1] += 1
                        drained.append(count)
                for count in fed:
                    count[0] += 1
                c += 1
            else:
                ptr = len(indices)

            if ptr > first:
                record((tid, first, ptr))
                remaining -= ptr - first
                last = last_run[tid] = indices[ptr - 1]
                waited = waited_in[tid]
                for event_index in [e for e in waited if e <= last]:
                    waited.discard(event_index)
                    wake(dep_waiters.pop(event_index), cur_pass, cur_pos)
            for count in drained:
                waiters = count[2]
                if waiters:
                    count[2] = None
                    wake(waiters, cur_pass, cur_pos)
            pointer[tid] = ptr
            cursor[tid] = c
            state[tid] = _BLOCKED if blocked else _DONE

        return _Schedule(visits, tuple(queue_keys), forced_events)

    # -- re-timing a recorded schedule ----------------------------------------------------

    def _retime(
        self,
        index: _TraceIndex,
        setup: _ReplaySetup,
        schedule: _Schedule,
        timelines: Dict[int, ThreadTimeline],
        costs: Dict[ExecutionDomain, Tuple[float, ...]],
    ) -> Tuple:
        """Time a recorded visit order under this simulator's configuration.

        Executes the events in the order :meth:`_schedule` recorded for this
        (trace, assignment, queue depth), with the issue/dequeue/enqueue
        arithmetic of the poll loop step for step: each queue is a pair of
        completion-time lists plus two stall accumulators (the state of a
        ``TimedQueue`` in ``tests/reference_runtime.py``), the module bus a
        set of booked cycle slots (its ``MessageBus``).  No
        probe is needed: the recording only runs an event whose operands are
        timed and whose queues have room — except a forced event, whose
        enqueue into a full queue waits for no slot.

        Returns (queues, transfers, producer stall, consumer stall, bus
        transfers), the statistics :meth:`simulate` reports; *costs* holds
        each domain's opcode costs (see :meth:`_costs`).
        """
        thread_of = setup.thread_of
        per_thread = setup.per_thread
        dyn_consumers = setup.dyn_consumers
        local = setup.local
        block_occurrence = index.block_occurrence
        inst_no = index.inst_no
        deps_seq = index.deps_seq
        mem_tail = index.mem_tail

        runtime = self.runtime
        coherency_delay = runtime.coherency_delay
        memory_read_cycles = runtime.memory_read_cycles
        processor_op_cycles = runtime.processor_op_cycles
        bus_latency = runtime.bus_latency
        queue_depth = runtime.queue_depth
        queue_latency = runtime.queue_latency
        loop_pipe = self.hls.loop_pipelining
        slot = 1.0 / max(1, self.hls.issue_width)
        cost_arrays = {domain: self._cost_array(index, c) for domain, c in costs.items()}
        thread_domain = {tid: t.spec.domain for tid, t in timelines.items()}

        # Per consumer thread: producer static number -> queue number.
        queue_of: Dict[int, Dict[int, int]] = {tid: {} for tid in timelines}
        for q, (producer, consumer_thread) in enumerate(schedule.queue_keys):
            queue_of[consumer_thread][producer] = q
        n_queues = len(schedule.queue_keys)
        enq_done: List[List[float]] = [[] for _ in range(n_queues)]
        deq_done: List[List[float]] = [[] for _ in range(n_queues)]
        producer_stall = [0.0] * n_queues
        consumer_stall = [0.0] * n_queues
        bus_slots: Set[int] = set()
        bus_transfers = 0
        finish: List[Optional[float]] = [None] * len(deps_seq)
        # Per consumer thread: producing event -> when its value was dequeued.
        received_by: Dict[int, Dict[int, float]] = {tid: {} for tid in timelines}

        visits = schedule.visits
        for v in range(0, len(visits), 3):
            tid = visits[v]
            first = visits[v + 1]
            end = visits[v + 2]
            timeline = timelines[tid]
            domain = thread_domain[tid]
            is_sw = domain is ExecutionDomain.SOFTWARE
            fsm = not is_sw and not loop_pipe
            cost_arr = cost_arrays[domain]
            op_cost = processor_op_cycles if is_sw else 2
            next_free = timeline.next_free
            busy = timeline.busy_cycles
            finish_time = timeline.finish_time
            cur_block = timeline.current_block
            block_max = timeline.block_max_done
            my_queues = queue_of[tid]
            received = received_by[tid]

            for i in per_thread[tid][first:end]:
                ready = 0.0
                if local[i]:
                    for dep in deps_seq[i]:
                        dep_finish = finish[dep]
                        if dep_finish > ready:
                            ready = dep_finish
                    consumer_threads = ()
                else:
                    consumer_threads = dyn_consumers[i]
                    dseq = deps_seq[i]
                    # A coherency-path memory dep (the tail) is never also a
                    # register dep, so its value alone identifies it.
                    tail = dseq[-1] if mem_tail[i] else -1
                    for dep in dseq:
                        dep_finish = finish[dep]
                        dep_thread = thread_of[dep]
                        if dep_thread == tid:
                            if dep_finish > ready:
                                ready = dep_finish
                            continue
                        if dep == tail:
                            # Cross-thread memory flow: shared memory + coherency.
                            delay = coherency_delay
                            if thread_domain[dep_thread] != domain:
                                delay += memory_read_cycles
                            arrival = dep_finish + delay
                            if arrival > ready:
                                ready = arrival
                            continue
                        got = received.get(dep)
                        if got is None:
                            # TimedQueue.dequeue(next_free or 0.0).
                            q = my_queues[inst_no[dep]]
                            dq = deq_done[q]
                            eq = enq_done[q]
                            at = len(dq)
                            start = next_free if next_free > 0.0 else 0.0
                            # Every value read has been produced, so it is in.
                            available = eq[at] + queue_latency
                            if available > start:
                                consumer_stall[q] += available - start
                                start = available
                            got = start + op_cost
                            if dq and dq[-1] > got:
                                got = dq[-1]
                            dq.append(got)
                            received[dep] = got
                            busy += op_cost
                            if got > next_free:
                                next_free = got
                        if got > ready:
                            ready = got
                if fsm:
                    occ = block_occurrence[i]
                    if occ != cur_block:
                        if block_max > next_free:
                            next_free = block_max
                        cur_block = occ
                        block_max = 0.0
                issue = ready if ready >= next_free else next_free
                cost = cost_arr[i]
                done = issue + cost
                if is_sw or cost > 1.0:
                    next_free = done
                    busy += cost
                else:
                    next_free = issue + slot
                    busy += slot
                if consumer_threads:
                    producer = inst_no[i]
                    for consumer_thread in consumer_threads:
                        # MessageBus.request(done, processor=is_sw).
                        bus_slot = int(done)
                        if not is_sw:
                            while bus_slot in bus_slots:
                                bus_slot += 1
                        bus_slots.add(bus_slot)
                        bus_transfers += 1
                        floor = bus_slot + bus_latency - bus_latency
                        # TimedQueue.enqueue(max(done, floor)).
                        start = done if done >= floor else floor
                        q = queue_of[consumer_thread][producer]
                        eq = enq_done[q]
                        at = len(eq)
                        if at >= queue_depth:
                            dq = deq_done[q]
                            at -= queue_depth
                            space_free = dq[at] if at < len(dq) else 0.0
                            if space_free > start:
                                producer_stall[q] += space_free - start
                                start = space_free
                        enqueue_done = start + op_cost
                        if eq and eq[-1] > enqueue_done:
                            enqueue_done = eq[-1]
                        eq.append(enqueue_done)
                        busy += op_cost
                        if enqueue_done > next_free:
                            next_free = enqueue_done
                if fsm:
                    if done > block_max:
                        block_max = done
                elif done > finish_time:
                    finish_time = done
                finish[i] = done

            # As in _replay_hardware_events: the finish time, once per visit.
            if next_free > finish_time:
                finish_time = next_free
            if fsm and block_max > finish_time:
                finish_time = block_max
            timeline.next_free = next_free
            timeline.busy_cycles = busy
            timeline.finish_time = finish_time
            timeline.events_executed += end - first
            timeline.current_block = cur_block
            timeline.block_max_done = block_max

        return (
            n_queues,
            sum(len(eq) for eq in enq_done),
            sum(producer_stall),
            sum(consumer_stall),
            bus_transfers,
        )

    def _execution_cost(self, opcode: Opcode, domain: ExecutionDomain) -> float:
        if domain is ExecutionDomain.SOFTWARE:
            return float(self.software.opcode_cost(opcode))
        cost = float(self.hardware.opcode_cost(opcode))
        if opcode is Opcode.LOAD:
            cost = float(self.runtime.memory_read_cycles)
        elif opcode is Opcode.STORE:
            cost = float(self.runtime.memory_write_cycles)
        return max(cost, 0.0)


def simulate_partitioned(
    module,
    trace: Trace,
    partitioning,
    runtime: RuntimeConfig,
    hls: HLSConfig,
) -> TimingResult:
    """Pure sweep-point re-simulation: replay *trace* under *partitioning*.

    A module-level function of (compile artifact pieces, config) with no
    other state, so a ``-j N`` pool worker (:mod:`repro.eval.taskgraph`)
    can pickle it and re-run just the timing tail of the pipeline for one
    (workload, sweep-point) task — the Figure 6.5/6.6 queue sweeps.
    """
    with perf.stage("replay"):
        assignment = ThreadAssignment.from_partitioning(module, partitioning)
        return TimingSimulator(runtime, hls).simulate(trace, assignment)
