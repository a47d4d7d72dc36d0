"""Discrete-event simulation kernel.

Time is measured in integer CPU *cycles* of the simulated machine.  All
components of one simulated machine (CPUs, interrupt controller, devices)
share a single :class:`~repro.sim.engine.Engine`.  Processes are Python
generators that yield *commands* (:class:`Timeout`, :class:`SimEvent`,
:class:`AllOf`, :class:`AnyOf`) back to the engine.

The kernel is deliberately small and deterministic: given identical inputs
it always produces identical event orderings (ties broken by scheduling
sequence number), which the measurement framework relies on.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, SimEvent, Timeout
from repro.sim.process import Process
from repro.sim.channel import Channel
from repro.sim.clock import Clock
from repro.sim.rng import DeterministicRng

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Clock",
    "DeterministicRng",
    "Engine",
    "Process",
    "SimEvent",
    "Timeout",
]
