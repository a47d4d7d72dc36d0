"""Derived per-operation costs: what the application models consume.

Every number here is *measured by running the simulated hypervisor paths*,
so the application benchmark results inherit their platform differences
from the same mechanism the microbenchmarks measure — the paper's core
argument made executable.  The probes (the microbenchmark suite, the
loaded-server notification, one paravirtual block read) share one
testbed: each leaves it idle, so none depends on what ran before it
(``tests/test_testbed_builds.py`` checks this against a fresh testbed per
probe).
"""

import dataclasses

from repro.core.microbench import MicrobenchmarkSuite
from repro.core.testbed import build_testbed
from repro.hv.base import PAGE_SIZE
from repro.hv.blockio import native_block_cycles
from repro.hw.mem.grant import grant_copy_cycles

MTU_BYTES = 1500
TSO_SEGMENT_BYTES = 64 * 1024
#: netback batches grant-unmap TLB flushes over this many slots
GRANT_BATCH = 16


@dataclasses.dataclass
class DerivedOpCosts:
    """Per-operation costs (cycles) for one platform configuration."""

    key: str
    frequency_hz: float
    hypercall: int
    intc_trap: int
    virtual_ipi: int
    virq_complete: int
    vm_switch: int
    io_kick: int
    io_notify_blocked: int
    io_notify_running: int
    #: cycles the *target VCPU's* PCPU is occupied per delivery to a
    #: running VM (the Section V interrupt-bottleneck quantity)
    delivery_occupancy: int
    #: one grant copy of an MTU packet (Xen only; 0 for KVM)
    grant_copy_mtu: int
    grant_copy_page: int
    #: grant copies with the TLB invalidation amortized over a netback
    #: ring batch (the bulk-transfer path batches flushes)
    grant_copy_mtu_batched: int
    grant_copy_page_batched: int
    #: extra cycles of one 4 KB paravirtual block round trip vs native
    block_io_overhead: int = 0

    def us(self, cycles):
        return cycles * 1e6 / self.frequency_hz


def measure_derived_costs(key, seed=2016):
    """Measure all derived costs for one platform key."""
    testbed = build_testbed(key, seed=seed)
    suite = MicrobenchmarkSuite(testbed)
    micro = suite.run_all()
    notify_running, occupancy = _measure_notify_running(testbed)
    block_io_overhead = _measure_block_io(testbed)
    costs = testbed.machine.costs
    if testbed.hypervisor.design == "type1":
        shootdown = testbed.hypervisor.shootdown
        grant_mtu = grant_copy_cycles(costs, shootdown, MTU_BYTES)
        grant_page = grant_copy_cycles(costs, shootdown, PAGE_SIZE)
        amortized = shootdown.invalidate_cycles() * (GRANT_BATCH - 1) // GRANT_BATCH
        grant_mtu_batched = grant_mtu - amortized
        grant_page_batched = grant_page - amortized
    else:
        grant_mtu = grant_page = 0
        grant_mtu_batched = grant_page_batched = 0
    return DerivedOpCosts(
        key=key,
        frequency_hz=testbed.machine.platform.frequency_hz,
        hypercall=micro["Hypercall"],
        intc_trap=micro["Interrupt Controller Trap"],
        virtual_ipi=micro["Virtual IPI"],
        virq_complete=micro["Virtual IRQ Completion"],
        vm_switch=micro["VM Switch"],
        io_kick=micro["I/O Latency Out"],
        io_notify_blocked=micro["I/O Latency In"],
        io_notify_running=notify_running,
        delivery_occupancy=occupancy,
        grant_copy_mtu=grant_mtu,
        grant_copy_page=grant_page,
        grant_copy_mtu_batched=grant_mtu_batched,
        grant_copy_page_batched=grant_page_batched,
        block_io_overhead=block_io_overhead,
    )


def _measure_block_io(testbed):
    """One 4 KB read through the paravirtual block path, vs native."""
    hv = testbed.hypervisor
    vm = testbed.vm
    hv.install_guest(vm.vcpu(0))
    if hv.design == "type1":
        hv.park_vcpu(hv.dom0.vcpu(0))  # Dom0 idles between requests
    engine = testbed.engine
    start = engine.now
    done = testbed.block_path.submit(vm.vcpu(0), PAGE_SIZE)
    finished = engine.run_until_fired(done)
    engine.run()
    virtualized = finished - start
    native = native_block_cycles(testbed.block_device, PAGE_SIZE, testbed.kernel)
    return max(0, virtualized - native)


def _measure_notify_running(testbed):
    """Notify a VM that is busy executing (the loaded-server case)."""
    hv = testbed.hypervisor
    machine = testbed.machine
    vm = testbed.vm
    if hv.design == "type1":
        hv.install_guest(hv.dom0.vcpu(0))
    hv.install_guest(vm.vcpu(0))

    def notify():
        start = machine.engine.now
        fired_at = machine.engine.run_until_fired(hv.notify_guest(vm))
        machine.run()
        return fired_at - start

    spans = machine.obs.spans
    total, window = spans.record_window(notify)
    # Everything charged to the target VCPU's PCPU is serialized behind
    # its virtual interrupt handling (delivery + completion included).
    target = vm.vcpu(0).pcpu.index
    occupancy = sum(
        span.duration
        for span in spans.iter_spans(window)
        if span.is_leaf and span.pcpu == target
    )
    return total, occupancy


def measure_all(keys, seed=2016):
    return {key: measure_derived_costs(key, seed=seed) for key in keys}
