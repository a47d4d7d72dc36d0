"""E9 — Figures 1-3 and 5: the architectural diagrams, plus a live
demonstration of the mechanism each one describes.

Run:  python examples/architectures.py
"""

from repro.core.reporting import describe_architecture
from repro.core.testbed import build_testbed
from repro.hw.cpu.arm import ArmCpu
from repro.hw.cpu.registers import RegClass


def main():
    for figure in ("figure1", "figure2", "figure3", "figure5"):
        print(describe_architecture(figure))
        print()

    # Figure 5's mechanism, live: VHE register redirection.
    cpu = ArmCpu(vhe_capable=True)
    cpu.set_e2h(True)
    cpu.regs.write(RegClass.EL1_SYS, "ttbr1_el1", 0x1111)  # the guest's
    cpu.trap_to_el2()
    cpu.write_sysreg("ttbr1_el1", 0x2222)  # host kernel, unmodified code
    print("VHE redirection demo (the paper's TTBR1 example):")
    print("  host in EL2 wrote ttbr1_el1        -> value 0x%x lands in TTBR1_EL2"
          % cpu.read_sysreg("ttbr1_el1"))
    print("  guest's real TTBR1_EL1 (via _el21) -> 0x%x, untouched"
          % cpu.read_sysreg_el21("ttbr1_el1"))

    # And what it means for the world switch:
    for key in ("kvm-arm", "kvm-vhe-arm"):
        testbed = build_testbed(key)
        machine = testbed.machine
        suite_vcpu = testbed.vm.vcpu(0)
        testbed.hypervisor.install_guest(suite_vcpu)
        machine.obs.spans.enabled = True
        machine.engine.spawn(testbed.hypervisor.run_hypercall(suite_vcpu), "hc")
        machine.run()
        steps = machine.obs.spans.leaf_totals()
        print("\n%s hypercall path (%d cycles):" % (key, sum(steps.values())))
        for label, cycles in steps.items():
            print("    %-24s %6d" % (label, cycles))


if __name__ == "__main__":
    main()
