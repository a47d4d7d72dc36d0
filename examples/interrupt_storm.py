"""Interrupt storm: list-register pressure and the Section V bottleneck.

Floods a VM with virtual interrupts to show two mechanisms:

1. The GIC virtual interface has only a few list registers; under
   pressure, interrupts overflow into software and each completion
   raises a *maintenance interrupt* — a full world switch for split-mode
   KVM, an EL2-local fixup for Xen.
2. All of this lands on the interrupt-handling VCPU, which is why the
   paper found Apache/Memcached saturating VCPU0 (and why distributing
   virtual IRQs dropped overhead from 35%/84% to 14%/16%).

Run:  python examples/interrupt_storm.py
"""

from repro.core.appbench import run_workload
from repro.core.testbed import build_testbed
from repro.workloads import Apache


def storm(key, virqs=12):
    testbed = build_testbed(key)
    hv = testbed.hypervisor
    vcpu = testbed.vm.vcpu(0)
    hv.install_guest(vcpu)
    for virq in range(100, 100 + virqs):
        vcpu.vif.inject(virq)
    start = testbed.engine.now
    delivered = 0
    while vcpu.vif.pending_count():
        virq = vcpu.vif.guest_acknowledge()
        testbed.engine.spawn(hv.complete_virq(vcpu, virq), "complete")
        testbed.engine.run()
        delivered += 1
    return delivered, testbed.engine.now - start, len(vcpu.vif.overflow)


def main():
    print("Draining a %d-interrupt burst through 4 list registers:\n" % 12)
    for key in ("kvm-arm", "xen-arm"):
        delivered, cycles, leftover = storm(key)
        print(
            "  %-8s delivered %d virqs in %6d cycles (%d per completion,"
            " maintenance traps included)"
            % (key, delivered, cycles, cycles // delivered)
        )
    print(
        "\nSplit-mode KVM pays a full world switch per maintenance event;"
        "\nXen refills its LRs without leaving EL2.\n"
    )

    print("The same mechanism at application scale (Apache, normalized to native):\n")
    for irq_vcpus, label in ((1, "all IRQs on VCPU0"), (4, "IRQs distributed")):
        results = {
            key: run_workload(Apache(), key, irq_vcpus=irq_vcpus)
            for key in ("kvm-arm", "xen-arm")
        }
        print(
            "  %-18s kvm-arm %.2f (%s), xen-arm %.2f (%s)"
            % (
                label + ":",
                results["kvm-arm"].normalized,
                results["kvm-arm"].bottleneck,
                results["xen-arm"].normalized,
                results["xen-arm"].bottleneck,
            )
        )


if __name__ == "__main__":
    main()
