"""xen-netfront: the DomU driver for Xen PV networking.

Heavier per-packet guest work than virtio: every buffer must be *granted*
before the backend may touch it (grant allocation + ref bookkeeping on
tx, grant revoke + reap on rx).  Table V shows the Xen VM-internal time
~2.9 us above native vs virtio's ~2.4 us.
"""

import dataclasses


@dataclasses.dataclass
class NetfrontCostsNs:
    tx_grant_and_descriptor: float = 1450.0
    rx_revoke_and_reap: float = 1450.0


class XenNetfront:
    """Cost view of the DomU netfront driver."""

    name = "xen-netfront"

    def __init__(self, clock):
        self.clock = clock
        self.ns = NetfrontCostsNs()
        self.tx_count = 0
        self.rx_count = 0

    def tx_cycles(self):
        self.tx_count += 1
        return self.clock.cycles_from_ns(self.ns.tx_grant_and_descriptor)

    def rx_cycles(self):
        self.rx_count += 1
        return self.clock.cycles_from_ns(self.ns.rx_revoke_and_reap)
