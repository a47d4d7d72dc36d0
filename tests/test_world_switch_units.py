"""Unit tests for the world-switch building blocks themselves."""

import pytest

from repro.errors import HardwareFault
from repro.hv import KvmHypervisor
from repro.hv.base import VcpuState
from repro.hv.kvm import world_switch as ws
from repro.hw.cpu.arm import ExceptionLevel
from repro.hw.cpu.registers import RegClass
from repro.hw.platform import Machine, arm_m400, x86_r320


def make(arch="arm", vhe=False):
    platform = arm_m400(vhe_capable=vhe) if arch == "arm" else x86_r320()
    machine = Machine(platform)
    hv = KvmHypervisor(machine, vhe=vhe)
    vm = hv.create_vm("vm0", 2, [4, 5])
    return machine, hv, vm


def run(machine, generator):
    machine.engine.spawn(generator, "test")
    machine.run()


class TestSplitModeSwitch:
    def test_exit_order_saves_gp_first(self):
        machine, hv, vm = make()
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        machine.obs.spans.enabled = True
        run(machine, ws.split_mode_exit(machine, vcpu))
        labels = list(machine.obs.spans.leaf_totals())
        assert labels[0] == "trap_to_el2"
        assert labels[1] == "save_gp"
        assert "disable_virt_features" in labels

    def test_enter_requires_host_side_state(self):
        """Entering from the host re-enables the virtualization features
        and restores the guest image."""
        machine, hv, vm = make()
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        run(machine, ws.split_mode_exit(machine, vcpu))
        arch = vcpu.pcpu.arch
        assert not arch.virt_features_enabled
        run(machine, ws.split_mode_enter(machine, vcpu))
        assert arch.virt_features_enabled
        assert arch.current_vmid == vm.vmid
        assert vcpu.state == VcpuState.GUEST

    def test_exit_from_host_context_faults(self):
        """Exiting a VCPU that is not in guest mode is a model bug the
        hardware layer catches (the CPU is already in EL1-host)."""
        machine, hv, vm = make()
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        run(machine, ws.split_mode_exit(machine, vcpu))
        machine.engine.spawn(ws.split_mode_exit(machine, vcpu), "double-exit")
        # The double exit traps from EL1 again -- but the *host's*
        # context is live now, so state isolation catches nothing; the
        # arch-level invariant that matters is EL bookkeeping:
        machine.run()  # trap_to_el2 from EL1 is legal; eret returns
        # ...but the guest image was overwritten with host state:
        assert vcpu.saved_context[RegClass.EL1_SYS]["ttbr1_el1"] == 0

    def test_enter_with_injection_places_lr(self):
        machine, hv, vm = make()
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        run(machine, ws.split_mode_exit(machine, vcpu))
        run(machine, ws.split_mode_enter(machine, vcpu, inject_virq=48))
        assert vcpu.vif.pending_count() == 1


class TestVheDeferred:
    def test_deferred_save_then_restore_round_trips(self):
        machine, hv, vm = make(vhe=True)
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        arch = vcpu.pcpu.arch
        arch.regs.write(RegClass.EL1_SYS, "ttbr0_el1", 0xABC)
        run(machine, ws.vhe_exit(machine, vcpu))
        run(machine, ws.vhe_deferred_save(machine, vcpu))
        assert vcpu.saved_context[RegClass.EL1_SYS]["ttbr0_el1"] == 0xABC
        arch.regs.write(RegClass.EL1_SYS, "ttbr0_el1", 0xDEF)  # another VM's
        run(machine, ws.vhe_deferred_restore(machine, vcpu))
        assert arch.regs.read(RegClass.EL1_SYS, "ttbr0_el1") == 0xABC

    def test_deferred_classes_exclude_gp(self):
        assert RegClass.GP not in ws.VHE_DEFERRED_CLASSES
        assert RegClass.VGIC in ws.VHE_DEFERRED_CLASSES

    def test_vhe_trap_costs_are_tiny(self):
        machine, hv, vm = make(vhe=True)
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        start = machine.engine.now
        run(machine, ws.vhe_exit(machine, vcpu, dispatch=False))
        run(machine, ws.vhe_enter(machine, vcpu))
        costs = machine.costs
        expected = (
            costs.trap_to_el2
            + costs.gp_save_light
            + costs.gp_restore_light
            + costs.eret_to_el1
        )
        assert machine.engine.now - start == expected


class TestX86Switch:
    def test_vmcs_switch_charged_only_when_changing_vcpu(self):
        machine, hv, vm = make(arch="x86")
        a, b = vm.vcpu(0), vm.vcpu(1)
        # Run b's VMCS on a's PCPU to force a vmptrld next time a runs.
        a_pcpu = a.pcpu
        b.pcpu = a_pcpu  # colocate for the test
        hv.install_guest(a)
        spans = machine.obs.spans
        spans.enabled = True
        run(machine, ws.x86_exit(machine, a))
        run(machine, ws.x86_enter(machine, a))  # same VMCS: no vmptrld
        assert "vmcs_switch" not in spans.leaf_totals()
        spans.clear()
        run(machine, ws.x86_exit(machine, a))
        run(machine, ws.x86_enter(machine, b))  # different VMCS
        assert "vmcs_switch" in spans.leaf_totals()

    def test_injection_via_vmcs_field(self):
        machine, hv, vm = make(arch="x86")
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        run(machine, ws.x86_exit(machine, vcpu))
        run(machine, ws.x86_enter(machine, vcpu, inject_vector=0x55))
        # Delivered on entry; the injection field is consumed.
        assert vcpu.vmcs.pending_injection is None
