"""The cross-CPU TLB invalidation cost asymmetry.

The paper's zero-copy discussion hinges on this: removing a grant-table
mapping requires invalidating the page's translation on every PCPU.  On
x86 that is one IPI per CPU (expensive — why Xen x86 abandoned zero-copy
I/O); ARM has a hardware broadcast invalidate (DVM), so the same
operation is one broadcast message.
"""

from repro.errors import ConfigurationError


class TlbShootdownModel:
    """Costs a global page invalidation across ``num_cpus``.

    ARM: one broadcast message (constant cost).
    x86: an IPI round to every *other* CPU plus local invalidation.
    """

    def __init__(self, arch, costs, num_cpus):
        if arch not in ("arm", "x86"):
            raise ConfigurationError("unknown arch %r" % (arch,))
        self.arch = arch
        self.costs = costs
        self.num_cpus = num_cpus

    def invalidate_cycles(self):
        if self.arch == "arm":
            return self.costs.tlb_invalidate_broadcast
        return self.costs.tlb_invalidate_ipi * max(0, self.num_cpus - 1)

