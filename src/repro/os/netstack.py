"""Network stack cost model (Linux 4.0-era, 10 GbE).

Calibration anchor: paper Table V's *native* decomposition — a TCP_RR
transaction spends 14.5 us on the server (receive -> send), which we split
into IRQ+receive-stack, application socket turnaround, and transmit-stack
components.  Virtualized configurations add the host-side bridge/tap path
(KVM) or Dom0 bridging (Xen) on top.

Costs are expressed in nanoseconds (constant work, independent of CPU
frequency differences between our two platforms) and converted to cycles
through the platform clock.
"""

import dataclasses

from repro.errors import ConfigurationError


@dataclasses.dataclass
class NetstackCostsNs:
    """Per-packet path costs in nanoseconds."""

    #: NIC IRQ handling + driver rx + IP/TCP receive processing
    irq_rx_stack: float = 6000.0
    #: socket wakeup + application read()+write() turnaround (netperf RR)
    app_turnaround: float = 2500.0
    #: TCP/IP transmit processing + driver tx + doorbell
    tx_stack: float = 6000.0
    #: host-only: bridge + tap traversal on the receive path
    bridge_rx: float = 8000.0
    #: host-only: tap + bridge traversal on the transmit path
    bridge_tx: float = 6000.0
    #: per-64KB-segment cost for bulk streams (TSO/GRO amortized)
    bulk_segment: float = 9000.0
    #: netperf client: response received -> next request on the wire
    client_turnaround: float = 25000.0


class NetstackModel:
    """Cycle-cost view of the stack for one platform."""

    def __init__(self, clock):
        if clock is None:
            raise ConfigurationError("netstack model needs the platform clock")
        self.clock = clock
        self.ns = NetstackCostsNs()

    # --- per-packet paths (latency benchmarks) ----------------------------

    def host_rx_cycles(self):
        """NIC IRQ + receive stack in the host/Dom0."""
        return self.clock.cycles_from_ns(self.ns.irq_rx_stack)

    def host_tx_cycles(self):
        return self.clock.cycles_from_ns(self.ns.tx_stack)

    def bridge_cycles(self):
        """Bridge+tap on the host receive path (toward the VM)."""
        return self.clock.cycles_from_ns(self.ns.bridge_rx)

    def bridge_tx_cycles(self):
        return self.clock.cycles_from_ns(self.ns.bridge_tx)

    def guest_rx_cycles(self):
        """The guest's own receive stack (same kernel, same work)."""
        return self.clock.cycles_from_ns(self.ns.irq_rx_stack)

    def guest_tx_cycles(self):
        return self.clock.cycles_from_ns(self.ns.tx_stack)

    def app_turnaround_cycles(self):
        return self.clock.cycles_from_ns(self.ns.app_turnaround)

    def native_recv_to_send_cycles(self):
        """The whole native server-side path of one RR transaction."""
        return self.host_rx_cycles() + self.app_turnaround_cycles() + self.host_tx_cycles()

    def client_turnaround_cycles(self):
        """Client-side processing between response and next request."""
        return self.clock.cycles_from_ns(self.ns.client_turnaround)

    # --- bulk streaming (throughput benchmarks) -------------------------------

    def bulk_segment_cycles(self):
        """CPU cost to move one 64 KB TSO segment through the stack."""
        return self.clock.cycles_from_ns(self.ns.bulk_segment)
