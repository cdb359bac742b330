"""Twill runtime-architecture models (thesis Chapter 4).

Event-at-a-time timing models of two runtime primitives the generated
threads communicate through: the hardware FIFO queues
(:class:`TimedQueue`) and the message bus with its arbiter
(:class:`MessageBus`).  The hybrid timing simulator (``repro.sim.timing``)
does not instantiate them: its replay inlines the same queue and bus
arithmetic over flat arrays.  The classes are the readable statement of
that arithmetic, and the reference replay in ``tests/replay_oracle.py``
runs on them to hold the fast replay equal to it.
"""

from repro.runtime.queue import TimedQueue
from repro.runtime.bus import MessageBus, BusStatistics

__all__ = [
    "TimedQueue",
    "MessageBus",
    "BusStatistics",
]
