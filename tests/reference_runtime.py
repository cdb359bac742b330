"""Reference models of the Twill runtime primitives (thesis Chapter 4).

Event-at-a-time timing models of the two primitives the generated threads
communicate through: the hardware FIFO queues (:class:`TimedQueue`, §4.3)
and the module bus with its arbiter (:class:`MessageBus`, §4.1).  The
timing replay (``repro.sim.timing``) does not instantiate them: it inlines
the same queue and bus arithmetic over flat arrays.  These classes are the
readable statement of that arithmetic, and the poll engine in
``tests/replay_oracle.py`` runs on them to hold the fast replay equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass
class QueueStatistics:
    """Occupancy and stall accounting for one queue."""

    enqueues: int = 0
    dequeues: int = 0
    producer_stall_cycles: float = 0.0
    consumer_stall_cycles: float = 0.0
    max_occupancy: int = 0


class TimedQueue:
    """FIFO with bounded capacity, transfer latency and per-op cost, in virtual time.

    The real queue is a circular buffer with one extra slot; enqueue and
    dequeue each take a minimum of two cycles over the module bus, the
    producer stalls when the queue is full, and the consumer stalls when it
    is empty.  Callers pass the cycle at which the producer/consumer is
    ready and get back the cycle at which the operation completes.
    """

    def __init__(
        self,
        queue_id: int,
        depth: int = 8,
        latency: int = 2,
        enqueue_cost: int = 2,
        dequeue_cost: int = 2,
    ):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.queue_id = queue_id
        self.depth = depth
        self.latency = latency
        self.enqueue_cost = enqueue_cost
        self.dequeue_cost = dequeue_cost
        # Completion time of the i-th enqueue / dequeue.
        self._enqueue_done: List[float] = []
        self._dequeue_done: List[float] = []
        self.stats = QueueStatistics()

    # -- producer side ---------------------------------------------------------------

    def can_enqueue(self) -> bool:
        """Is there a slot for the next enqueue, given the dequeues seen so far?

        The replay engine uses this to *block* a producer thread on a full
        queue until the consumer thread has been given a chance to dequeue —
        which is how the real runtime creates back-pressure (§4.3).
        """
        index = len(self._enqueue_done)
        return index < self.depth or (index - self.depth) < len(self._dequeue_done)

    def enqueue(self, producer_ready: float) -> float:
        """Producer offers a value at ``producer_ready``; returns completion time.

        The i-th enqueue cannot complete until the (i - depth)-th entry has
        been dequeued (circular buffer with ``depth`` usable slots).
        """
        index = len(self._enqueue_done)
        start = producer_ready
        if index >= self.depth:
            # Must wait for space: the entry `depth` positions earlier must be gone.
            space_free = self._dequeue_free_time(index - self.depth)
            if space_free > start:
                self.stats.producer_stall_cycles += space_free - start
                start = space_free
        done = start + self.enqueue_cost
        if self._enqueue_done:
            # The enqueue port is serial: completions are monotone.
            done = max(done, self._enqueue_done[-1])
        self._enqueue_done.append(done)
        self.stats.enqueues += 1
        occupancy = len(self._enqueue_done) - len(self._dequeue_done)
        self.stats.max_occupancy = max(self.stats.max_occupancy, occupancy)
        return done

    def _dequeue_free_time(self, index: int) -> float:
        """Time at which the ``index``-th dequeue will have freed its slot.

        When that dequeue has not been recorded yet the caller chose to run
        ahead of the consumer (the replay engine normally prevents this via
        :meth:`can_enqueue`; the forced-progress fallback does not) — the
        producer's own time is returned, i.e. no extra stall is charged.
        """
        if index < len(self._dequeue_done):
            return self._dequeue_done[index]
        return 0.0

    # -- consumer side ------------------------------------------------------------------

    def value_available(self, index: int) -> float:
        """Cycle at which the ``index``-th value is visible to the consumer."""
        if index >= len(self._enqueue_done):
            return float("inf")
        return self._enqueue_done[index] + self.latency

    def dequeue(self, consumer_ready: float) -> float:
        """Consumer requests the next value at ``consumer_ready``; returns completion."""
        index = len(self._dequeue_done)
        available = self.value_available(index)
        start = consumer_ready
        if available > start:
            self.stats.consumer_stall_cycles += available - start
            start = available
        done = start + self.dequeue_cost
        if self._dequeue_done:
            # The dequeue port is serial too.
            done = max(done, self._dequeue_done[-1])
        self._dequeue_done.append(done)
        self.stats.dequeues += 1
        return done

    # -- queries ----------------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._enqueue_done) - len(self._dequeue_done)

    def total_transfers(self) -> int:
        return self.stats.enqueues


@dataclass
class BusStatistics:
    """Utilisation accounting for one bus."""

    transfers: int = 0
    contention_cycles: float = 0.0
    last_busy_cycle: float = 0.0

    def utilisation(self, total_cycles: float) -> float:
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.transfers / total_cycles)


class MessageBus:
    """Single-slot-per-cycle bus with priority-free FCFS contention modelling.

    The bus carries one message per cycle.  The arbiter gives priority to
    the processor, then to messages destined for the processor, then to the
    longest-waiting primitive.  Contention is modelled by booking one-cycle
    slots on a virtual timeline: a transfer requested at cycle *t*
    completes at the first free slot at or after *t*, plus the bus latency.
    The arbiter's priority rules only change *which* of several
    simultaneously-waiting primitives goes first; the aggregate delay (every
    waiter is eventually served, one per cycle) is the same under FCFS, so
    the simpler policy is used here.
    """

    def __init__(self, name: str = "module-bus", latency: int = 1):
        self.name = name
        self.latency = latency
        # Occupied cycle slots, sparse.  Keyed by integer cycle.
        self._busy: Dict[int, int] = {}
        self.stats = BusStatistics()

    def request(self, ready: float, processor: bool = False) -> float:
        """Book a bus slot at or after ``ready``; returns message-delivered time.

        ``processor`` marks transfers originating from the CPU, which the real
        arbiter prioritises; here it simply skips the contention search (the
        CPU is never made to wait more than one slot, matching §4.1's design
        goal that the processor pipeline should not stall on the bus).
        """
        slot = int(ready)
        if not processor:
            while self._busy.get(slot, 0) >= 1:
                slot += 1
        self._busy[slot] = self._busy.get(slot, 0) + 1
        delay = slot - ready if slot > ready else 0.0
        self.stats.transfers += 1
        self.stats.contention_cycles += max(0.0, delay)
        done = slot + self.latency
        self.stats.last_busy_cycle = max(self.stats.last_busy_cycle, done)
        return done

    def reset(self) -> None:
        self._busy.clear()
        self.stats = BusStatistics()
