"""Kernel cost model: syscalls, wakeups and rescheduling IPIs.

These are the per-event costs the workload models multiply by their event
mixes.  Expressed in nanoseconds (Linux 4.0-era costs on server-class
cores) and converted per platform.
"""

import dataclasses


@dataclasses.dataclass
class KernelCostsNs:
    syscall: float = 180.0
    #: futex/pipe wake of a sleeping task on the same machine
    local_wakeup: float = 900.0
    #: one scheduler rebalancing IPI handled natively
    resched_ipi: float = 700.0


class KernelModel:
    """Cycle-cost view of kernel operations for one platform."""

    def __init__(self, clock):
        self.clock = clock
        self.ns = KernelCostsNs()

    def syscall_cycles(self):
        return self.clock.cycles_from_ns(self.ns.syscall)

    def local_wakeup_cycles(self):
        return self.clock.cycles_from_ns(self.ns.local_wakeup)

    def resched_ipi_cycles(self):
        return self.clock.cycles_from_ns(self.ns.resched_ipi)
