"""Discrete-event simulation kernel.

Time is measured in integer CPU *cycles* of the simulated machine.  All
components of one simulated machine (CPUs, interrupt controller, devices)
share a single :class:`~repro.sim.engine.Engine`.  Processes are Python
generators that yield *commands* (:class:`Timeout`, :class:`SimEvent`)
back to the engine.

The kernel is deliberately small and deterministic: given identical inputs
it always produces identical event orderings (ties broken by scheduling
sequence number), which the measurement framework relies on.
"""

from repro.sim.engine import Engine
from repro.sim.events import SimEvent, Timeout
from repro.sim.process import Process
from repro.sim.channel import Channel
from repro.sim.clock import Clock

__all__ = [
    "Channel",
    "Clock",
    "Engine",
    "Process",
    "SimEvent",
    "Timeout",
]
