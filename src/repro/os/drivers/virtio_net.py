"""virtio-net frontend: the guest driver for KVM's paravirtual NIC.

Guest-side per-packet work beyond the plain stack: descriptor setup on
tx, used-ring reaping + skb wrap on rx.  Table V shows the VM-internal
transaction time only ~2.4 us above native; this driver contributes the
bulk of that delta (the doorbell trap itself is charged by the
hypervisor's kick path).
"""

import dataclasses


@dataclasses.dataclass
class VirtioDriverCostsNs:
    tx_descriptor: float = 1200.0
    rx_reap: float = 1200.0


class VirtioNetFrontend:
    """Cost view of the guest virtio-net driver."""

    name = "virtio-net"

    def __init__(self, clock):
        self.clock = clock
        self.ns = VirtioDriverCostsNs()
        self.tx_count = 0
        self.rx_count = 0

    def tx_cycles(self):
        self.tx_count += 1
        return self.clock.cycles_from_ns(self.ns.tx_descriptor)

    def rx_cycles(self):
        self.rx_count += 1
        return self.clock.cycles_from_ns(self.ns.rx_reap)
