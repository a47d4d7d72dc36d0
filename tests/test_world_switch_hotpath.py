"""Tests for the world-switch hot path (hypercall and interrupt-trap ops).

The interpreter is the only execution path: every op walks its
``_*_path`` generator step by step.  These tests pin the properties the
hot path must keep — guest state survives repeated world switches, cost
fields are resolved live on every op, and observers never change
simulated cycles.
"""

from repro.hv import KvmHypervisor
from repro.hw.platform import Machine, arm_m400


def make_kvm_arm(vhe=False):
    machine = Machine(arm_m400(vhe_capable=vhe))
    hv = KvmHypervisor(machine, vhe=vhe)
    vm = hv.create_vm("vm0", 2, [4, 5])
    vcpu = vm.vcpu(0)
    hv.install_guest(vcpu)
    return machine, hv, vcpu


def run_ops(machine, hv, vcpu, count, op="hypercall"):
    for _ in range(count):
        if op == "hypercall":
            machine.engine.spawn(hv.run_hypercall(vcpu), "op")
        else:
            machine.engine.spawn(hv.run_intc_trap(vcpu), "op")
        machine.run()
    return machine.engine.now


def plain_cycles(count, op="hypercall"):
    """Cycles for ``count`` ops on a fresh machine with no observer."""
    machine, hv, vcpu = make_kvm_arm()
    return run_ops(machine, hv, vcpu, count, op=op)


class TestByteIdentity:
    def test_guest_state_preserved_across_replays(self):
        from repro.hw.cpu.registers import RegClass

        machine, hv, vcpu = make_kvm_arm()
        arch = vcpu.pcpu.arch
        arch.regs.write(RegClass.GP, "x0", 0x1234)
        run_ops(machine, hv, vcpu, 8)
        assert arch.regs.read(RegClass.GP, "x0") == 0x1234


class TestLiveCostResolution:
    def test_monkeypatched_cost_honored_without_invalidation(self):
        machine, hv, vcpu = make_kvm_arm()
        run_ops(machine, hv, vcpu, 3)
        before = machine.engine.now
        run_ops(machine, hv, vcpu, 1)
        baseline_delta = machine.engine.now - before

        machine.costs.hypercall_body += 1000
        before = machine.engine.now
        run_ops(machine, hv, vcpu, 1)
        patched_delta = machine.engine.now - before
        # Each op reads the cost field when it runs: the patch shows up
        # on the very next op, with nothing to invalidate.
        assert patched_delta == baseline_delta + 1000

    def test_patched_cost_matches_interpretation(self):
        machine, hv, vcpu = make_kvm_arm()
        run_ops(machine, hv, vcpu, 4)
        before = machine.engine.now
        run_ops(machine, hv, vcpu, 4, op="intc")
        baseline = machine.engine.now - before

        machine, hv, vcpu = make_kvm_arm()
        run_ops(machine, hv, vcpu, 4)
        machine.costs.mmio_decode += 77
        before = machine.engine.now
        run_ops(machine, hv, vcpu, 4, op="intc")
        # One MMIO decode per interrupt-controller trap.
        assert machine.engine.now - before == baseline + 4 * 77


class TestObserverPassthrough:
    @staticmethod
    def check_span_recording_leaves_cycles_unchanged(op):
        expected = plain_cycles(3, op=op)
        machine, hv, vcpu = make_kvm_arm()
        machine.obs.spans.enabled = True
        assert run_ops(machine, hv, vcpu, 3, op=op) == expected
        assert machine.obs.spans.leaf_totals()

    def test_span_recording_leaves_hypercall_cycles_unchanged(self):
        self.check_span_recording_leaves_cycles_unchanged("hypercall")

    def test_span_recording_leaves_intc_trap_cycles_unchanged(self):
        self.check_span_recording_leaves_cycles_unchanged("intc-trap")

