"""Oversubscription analysis: what VM switches cost at consolidation.

Table I motivates the VM Switch microbenchmark as "a central cost when
oversubscribing physical CPUs".  This experiment quantifies it: two VMs
share the same physical cores under a timeslice scheduler, and the
fraction of CPU lost to switching is simulated for a sweep of timeslice
lengths, per platform — turning the Table II VM Switch cycle counts into
the consolidation-density story an operator would actually use.
"""

import dataclasses

from repro.core.testbed import build_testbed
from repro.errors import ConfigurationError
from repro.sim import Timeout

#: simulated interval each sweep point ping-pongs the two VMs for
INTERVAL_MS = 5.0


@dataclasses.dataclass
class OversubscriptionPoint:
    key: str
    timeslice_us: float
    switches: int
    switch_cycles: int
    total_cycles: int

    @property
    def efficiency(self):
        """Fraction of CPU that still does guest work."""
        return 1.0 - self.switch_cycles / self.total_cycles


class OversubscriptionExperiment:
    """Ping-pong two VMs on one core for a simulated interval."""

    def __init__(self, key, timeslice_us, interval_ms=INTERVAL_MS):
        if timeslice_us <= 0:
            raise ConfigurationError("timeslice must be positive")
        self.testbed = build_testbed(key)
        self.timeslice_us = timeslice_us
        self.interval_ms = interval_ms

    def run(self):
        testbed = self.testbed
        hv = testbed.hypervisor
        engine = testbed.engine
        clock = testbed.clock
        a = testbed.vm.vcpu(0)
        b = testbed.vm2.vcpu(0)
        hv.install_guest(a)
        hv.park_vcpu(b)
        timeslice = clock.cycles_from_us(self.timeslice_us)
        horizon = engine.now + clock.cycles_from_us(self.interval_ms * 1000.0)
        stats = {"switches": 0, "switch_cycles": 0}
        pair = [a, b]

        def scheduler():
            index = 0
            while engine.now < horizon:
                yield Timeout(timeslice)  # the guest runs its slice
                if engine.now >= horizon:
                    break
                before = engine.now
                yield from hv.switch_vm(pair[index % 2], pair[(index + 1) % 2])
                stats["switches"] += 1
                stats["switch_cycles"] += engine.now - before
                index += 1

        start = engine.now
        engine.spawn(scheduler(), "timeslice-scheduler")
        engine.run()
        return OversubscriptionPoint(
            key=testbed.key,
            timeslice_us=self.timeslice_us,
            switches=stats["switches"],
            switch_cycles=stats["switch_cycles"],
            total_cycles=engine.now - start,
        )


def sweep(keys, timeslices_us):
    """{key: [OversubscriptionPoint, ...]} across timeslice lengths."""
    return {
        key: [OversubscriptionExperiment(key, ts).run() for ts in timeslices_us]
        for key in keys
    }
