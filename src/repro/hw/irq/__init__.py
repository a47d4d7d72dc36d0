"""Interrupt controllers: ARM GIC (+virtual interface), x86 APIC, IPI fabric."""

from repro.hw.irq.gic import Gic, VirtualCpuInterface
from repro.hw.irq.apic import Apic, LocalApic
from repro.hw.irq.ipi import IpiFabric

__all__ = [
    "Apic",
    "Gic",
    "IpiFabric",
    "LocalApic",
    "VirtualCpuInterface",
]
