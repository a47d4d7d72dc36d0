"""The seven microbenchmarks of paper Table I, run on simulated testbeds.

Methodology mirrors the paper's custom kernel driver: each operation is
measured from inside the VM on the engine's cycle clock (one clock for
every PCPU, so the paper's synchronized cycle counters hold by
construction), VCPUs pinned, and all other virtual interrupts kept off
the measured VCPUs.
Because the simulator is deterministic, repeated iterations must agree
exactly — the suite verifies this instead of averaging away noise.
"""

import dataclasses

from repro.errors import SimulationError
from repro.hv.base import VIRQ_VIRTIO_NET

#: Table I, reproduced as data: name -> description.
MICROBENCHMARKS = {
    "Hypercall": (
        "Transition from VM to hypervisor and return to VM without doing "
        "any work in the hypervisor. Measures bidirectional base "
        "transition cost of hypervisor operations."
    ),
    "Interrupt Controller Trap": (
        "Trap from VM to emulated interrupt controller then return to VM. "
        "Measures a frequent operation for many device drivers and "
        "baseline for accessing I/O devices emulated in the hypervisor."
    ),
    "Virtual IPI": (
        "Issue a virtual IPI from a VCPU to another VCPU running on a "
        "different PCPU, both PCPUs executing VM code. Measures time "
        "between sending the virtual IPI until the receiving VCPU handles "
        "it, a frequent operation in multi-core OSes."
    ),
    "Virtual IRQ Completion": (
        "VM acknowledging and completing a virtual interrupt. Measures a "
        "frequent operation that happens for every injected virtual "
        "interrupt."
    ),
    "VM Switch": (
        "Switch from one VM to another on the same physical core. "
        "Measures a central cost when oversubscribing physical CPUs."
    ),
    "I/O Latency Out": (
        "Measures latency between a driver in the VM signaling the "
        "virtual I/O device in the hypervisor and the virtual I/O device "
        "receiving the signal."
    ),
    "I/O Latency In": (
        "Measures latency between the virtual I/O device in the "
        "hypervisor signaling the VM and the VM receiving the "
        "corresponding virtual interrupt."
    ),
}

#: Row order of paper Table II.
TABLE2_ROWS = list(MICROBENCHMARKS)


@dataclasses.dataclass
class MicrobenchResult:
    name: str
    cycles: int
    iterations: int


class MicrobenchmarkSuite:
    """Runs the Table I microbenchmarks on one testbed."""

    def __init__(self, testbed, iterations=3):
        self.testbed = testbed
        self.hv = testbed.hypervisor
        self.machine = testbed.machine
        self.engine = testbed.engine
        self.iterations = iterations

    # --- harness machinery ------------------------------------------------

    def _measure_process(self, make_generator):
        """Time a round-trip operation (generator completion)."""
        samples = []
        for _ in range(self.iterations):
            start = self.engine.now
            self.engine.spawn(make_generator(), name="microbench")
            self.engine.run()
            samples.append(self.engine.now - start)
        return self._collapse(samples)

    def _measure_event(self, fire_op, cleanup=None):
        """Time an operation whose endpoint is a SimEvent firing."""
        samples = []
        for _ in range(self.iterations):
            start = self.engine.now
            event = fire_op()
            value = self.engine.run_until_fired(event)
            samples.append(value - start)
            self.engine.run()  # drain trailing work (re-entries etc.)
            if cleanup is not None:
                cleanup()
        return self._collapse(samples)

    def _collapse(self, samples):
        if len(set(samples)) != 1:
            raise SimulationError(
                "non-deterministic microbenchmark samples: %r" % (samples,)
            )
        return samples[0]

    def _drain_and_complete(self, vcpu):
        """Complete any virq left active by a measurement iteration."""
        if self.machine.is_arm:
            vif = vcpu.vif
            active = [lr.virq for lr in vif.list_registers if lr.state == "active"]
            for virq in active:
                self.engine.spawn(self.hv.complete_virq(vcpu, virq), "cleanup")
                self.engine.run()
        else:
            lapic = self.machine.apic.lapic(vcpu.pcpu.index)
            for virq in sorted(lapic.isr):
                self.engine.spawn(self.hv.complete_virq(vcpu, virq), "cleanup")
                self.engine.run()

    # --- the seven benchmarks ------------------------------------------------

    def hypercall(self):
        vcpu = self.testbed.vm.vcpu(0)
        self.hv.install_guest(vcpu)
        cycles = self._measure_process(lambda: self.hv.run_hypercall(vcpu))
        return MicrobenchResult("Hypercall", cycles, self.iterations)

    def interrupt_controller_trap(self):
        vcpu = self.testbed.vm.vcpu(0)
        self.hv.install_guest(vcpu)
        cycles = self._measure_process(lambda: self.hv.run_intc_trap(vcpu))
        return MicrobenchResult("Interrupt Controller Trap", cycles, self.iterations)

    def virtual_ipi(self):
        src = self.testbed.vm.vcpu(0)
        dst = self.testbed.vm.vcpu(1)
        self.hv.install_guest(src)
        self.hv.install_guest(dst)
        cycles = self._measure_event(
            lambda: self.hv.send_virtual_ipi(src, dst),
            cleanup=lambda: self._drain_and_complete(dst),
        )
        return MicrobenchResult("Virtual IPI", cycles, self.iterations)

    def virtual_irq_completion(self):
        vcpu = self.testbed.vm.vcpu(0)
        self.hv.install_guest(vcpu)
        samples = []
        for _ in range(self.iterations):
            virq = self._prepare_active_virq(vcpu)
            start = self.engine.now
            self.engine.spawn(self.hv.complete_virq(vcpu, virq), "complete")
            self.engine.run()
            samples.append(self.engine.now - start)
        return MicrobenchResult(
            "Virtual IRQ Completion", self._collapse(samples), self.iterations
        )

    def _prepare_active_virq(self, vcpu):
        """Setup (unmeasured): inject + acknowledge one virtual interrupt."""
        virq = VIRQ_VIRTIO_NET
        if self.machine.is_arm:
            vcpu.vif.inject(virq)
            vcpu.vif.guest_acknowledge()
        else:
            lapic = self.machine.apic.lapic(vcpu.pcpu.index)
            lapic.request(virq)
            lapic.deliver_highest()
        return virq

    def vm_switch(self):
        a = self.testbed.vm.vcpu(0)
        b = self.testbed.vm2.vcpu(0)
        self.hv.install_guest(a)
        self.hv.park_vcpu(b)
        # Alternate the switch direction, as the real benchmark ping-pongs.
        pair = [a, b]
        samples = []
        for i in range(self.iterations * 2):
            out, into = pair[i % 2], pair[(i + 1) % 2]
            start = self.engine.now
            self.engine.spawn(self.hv.switch_vm(out, into), "switch")
            self.engine.run()
            samples.append(self.engine.now - start)
        return MicrobenchResult("VM Switch", self._collapse(samples), self.iterations)

    def io_latency_out(self):
        vcpu = self.testbed.vm.vcpu(0)
        self.hv.install_guest(vcpu)

        def setup_and_fire():
            if self.hv.design == "type1":
                # Dom0 idles between I/O requests (the paper's scenario:
                # Xen parks it in the idle domain, making the DomU pay a
                # VM switch to signal it).
                self.hv.park_vcpu(self.hv.dom0.vcpu(0))
            return self.hv.kick_backend(vcpu)

        cycles = self._measure_event(setup_and_fire)
        return MicrobenchResult("I/O Latency Out", cycles, self.iterations)

    def io_latency_in(self):
        vm = self.testbed.vm
        if self.hv.design == "type1":
            self.hv.install_guest(self.hv.dom0.vcpu(0))

        def setup_and_fire():
            self.hv.park_vcpu(vm.vcpu(0))  # the VM idles, waiting for I/O
            return self.hv.notify_guest(vm)

        cycles = self._measure_event(
            setup_and_fire, cleanup=lambda: self._drain_and_complete(vm.vcpu(0))
        )
        return MicrobenchResult("I/O Latency In", cycles, self.iterations)

    # --- whole-suite entry point ----------------------------------------------

    def run_all(self):
        """All seven, in Table II row order; returns {name: cycles}."""
        results = [
            self.hypercall(),
            self.interrupt_controller_trap(),
            self.virtual_ipi(),
            self.virtual_irq_completion(),
            self.vm_switch(),
            self.io_latency_out(),
            self.io_latency_in(),
        ]
        return {result.name: result.cycles for result in results}
