"""Unit tests for the KVM hypervisor model: state correctness + structure."""

import pytest

from repro.errors import ConfigurationError
from repro.hv import KvmHypervisor, build_hypervisor
from repro.hv.base import VcpuState
from repro.hv.kvm.virtio import VirtioNetDevice
from repro.hw.cpu.arm import ExceptionLevel
from repro.hw.cpu.registers import RegClass
from repro.hw.platform import Machine, arm_m400, x86_r320


def make_kvm(arch="arm", vhe=False):
    platform = arm_m400(vhe_capable=vhe) if arch == "arm" else x86_r320()
    machine = Machine(platform)
    hv = KvmHypervisor(machine, vhe=vhe)
    vm = hv.create_vm("vm0", 2, [4, 5])
    return machine, hv, vm


def run(machine, generator):
    machine.engine.spawn(generator, "test")
    machine.run()


class TestConstruction:
    def test_vhe_requires_arm(self):
        machine = Machine(x86_r320())
        with pytest.raises(ConfigurationError):
            KvmHypervisor(machine, vhe=True)

    def test_vhe_requires_capable_silicon(self):
        machine = Machine(arm_m400(vhe_capable=False))
        with pytest.raises(ConfigurationError):
            KvmHypervisor(machine, vhe=True)

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            build_hypervisor("vmware", Machine(arm_m400()))

    def test_vhe_host_boots_into_el2(self):
        machine, _hv, _vm = make_kvm(vhe=True)
        assert machine.pcpu(0).arch.current_el == ExceptionLevel.EL2
        assert machine.pcpu(0).arch.e2h

    def test_vhost_worker_on_host_side_pcpu(self):
        _machine, hv, vm = make_kvm()
        worker = hv.vhost_workers[vm.name]
        assert worker.pcpu.index not in {vcpu.pcpu.index for vcpu in vm.vcpus}

    def test_vm_vcpu_pinning_mismatch_rejected(self):
        _machine, hv, _vm = make_kvm()
        with pytest.raises(ConfigurationError):
            hv.create_vm("bad", 3, [1, 2])


class TestSplitModeStateMovement:
    def test_hypercall_round_trip_preserves_guest_state(self):
        machine, hv, vm = make_kvm()
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        arch = vcpu.pcpu.arch
        arch.regs.write(RegClass.GP, "x0", 0x1234)
        arch.regs.write(RegClass.EL1_SYS, "ttbr1_el1", 0x9999)
        run(machine, hv.run_hypercall(vcpu))
        assert vcpu.state == VcpuState.GUEST
        assert arch.regs.read(RegClass.GP, "x0") == 0x1234
        assert arch.regs.read(RegClass.EL1_SYS, "ttbr1_el1") == 0x9999

    def test_exit_isolates_guest_state_from_host(self):
        """While the host runs, the guest's EL1 registers must not be live
        (they were context switched out — the split-mode cost)."""
        machine, hv, vm = make_kvm()
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        arch = vcpu.pcpu.arch
        arch.regs.write(RegClass.EL1_SYS, "ttbr1_el1", 0x7777)
        from repro.hv.kvm import world_switch as ws

        run(machine, ws.split_mode_exit(machine, vcpu))
        assert vcpu.state == VcpuState.HOST
        # Host context (zeros) is live now; guest value is in the image.
        assert arch.regs.read(RegClass.EL1_SYS, "ttbr1_el1") == 0
        assert vcpu.saved_context[RegClass.EL1_SYS]["ttbr1_el1"] == 0x7777
        assert not arch.virt_features_enabled

    def test_exit_snapshots_the_guest_before_disabling_stage2(self, monkeypatch):
        """The exit reads the guest image back while the VM's Stage-2 and
        VMID are still installed; disabling them first would snapshot a
        half-torn-down guest at no cycle cost, so only state shows it."""
        machine, hv, vm = make_kvm()
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        arch = vcpu.pcpu.arch
        snapshots = []
        save_context = arch.save_context

        def recording_save_context(classes):
            snapshots.append((arch.virt_features_enabled, arch.current_vmid))
            return save_context(classes)

        monkeypatch.setattr(arch, "save_context", recording_save_context)
        run(machine, hv.run_hypercall(vcpu))
        # the exit's guest snapshot, then the entry's host snapshot
        assert len(snapshots) == 2
        assert snapshots[0] == (True, vm.vmid)

    def test_hypercall_cost_matches_composed_primitives(self):
        machine, hv, vm = make_kvm()
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        start = machine.engine.now
        run(machine, hv.run_hypercall(vcpu))
        measured = machine.engine.now - start
        costs = machine.costs
        expected = (
            2 * costs.trap_to_el2
            + costs.full_save_cycles()
            + costs.full_restore_cycles()
            + 2 * costs.virt_feature_toggle
            + 2 * costs.eret_to_el1
            + costs.kvm_exit_dispatch
            + costs.hypercall_body
        )
        assert measured == expected

    def test_cost_tracks_primitive_change(self):
        """No hardcoding: doubling the VGIC save cost must move the
        measured hypercall time by exactly that amount."""
        machine_a, hv_a, vm_a = make_kvm()
        hv_a.install_guest(vm_a.vcpu(0))
        start = machine_a.engine.now
        run(machine_a, hv_a.run_hypercall(vm_a.vcpu(0)))
        base = machine_a.engine.now - start

        machine_b, hv_b, vm_b = make_kvm()
        machine_b.costs.save[RegClass.VGIC] += 1000
        hv_b.install_guest(vm_b.vcpu(0))
        start = machine_b.engine.now
        run(machine_b, hv_b.run_hypercall(vm_b.vcpu(0)))
        assert machine_b.engine.now - start == base + 1000


class TestVhe:
    def test_hypercall_never_touches_el1_state(self):
        machine, hv, vm = make_kvm(vhe=True)
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        arch = vcpu.pcpu.arch
        arch.regs.write(RegClass.EL1_SYS, "ttbr1_el1", 0xAAAA)
        machine.obs.spans.enabled = True
        run(machine, hv.run_hypercall(vcpu))
        labels = machine.obs.spans.leaf_totals()
        assert not any("el1_sys" in label for label in labels)
        assert not any("vgic" in label for label in labels)
        # Guest EL1 state stayed live through the whole round trip.
        assert arch.regs.read(RegClass.EL1_SYS, "ttbr1_el1") == 0xAAAA

    def test_vhe_hypercall_an_order_of_magnitude_cheaper(self):
        machine_split, hv_split, vm_split = make_kvm(vhe=False)
        hv_split.install_guest(vm_split.vcpu(0))
        start = machine_split.engine.now
        run(machine_split, hv_split.run_hypercall(vm_split.vcpu(0)))
        split_cost = machine_split.engine.now - start

        machine_vhe, hv_vhe, vm_vhe = make_kvm(vhe=True)
        hv_vhe.install_guest(vm_vhe.vcpu(0))
        start = machine_vhe.engine.now
        run(machine_vhe, hv_vhe.run_hypercall(vm_vhe.vcpu(0)))
        vhe_cost = machine_vhe.engine.now - start
        assert split_cost > 10 * vhe_cost

    def test_vm_switch_still_moves_full_state_under_vhe(self):
        """VHE helps traps, not VM switches (the paper's Section VI
        scoping): switching VMs still moves EL1/VGIC state."""
        machine, hv, vm = make_kvm(vhe=True)
        vm2 = hv.create_vm("vm2", 2, [4, 5])
        a, b = vm.vcpu(0), vm2.vcpu(0)
        hv.install_guest(a)
        hv.park_vcpu(b)
        machine.obs.spans.enabled = True
        run(machine, hv.switch_vm(a, b))
        labels = machine.obs.spans.leaf_totals()
        assert "save_vgic" in labels
        assert "restore_el1_sys" in labels


class TestX86:
    def test_hypercall_uses_vmcs_hardware_switch(self):
        machine, hv, vm = make_kvm(arch="x86")
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        machine.obs.spans.enabled = True
        run(machine, hv.run_hypercall(vcpu))
        labels = machine.obs.spans.leaf_totals()
        assert labels["vmexit_hw"] == machine.costs.vmexit_hw
        assert labels["vmentry_hw"] == machine.costs.vmentry_hw

    def test_guest_state_round_trips_through_vmcs(self):
        machine, hv, vm = make_kvm(arch="x86")
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        arch = vcpu.pcpu.arch
        arch.regs.write(RegClass.GP, "x0", 0xBEEF)
        run(machine, hv.run_hypercall(vcpu))
        assert not arch.root_mode
        assert arch.regs.read(RegClass.GP, "x0") == 0xBEEF

    def test_eoi_traps_without_vapic(self):
        machine, hv, vm = make_kvm(arch="x86")
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        lapic = machine.apic.lapic(vcpu.pcpu.index)
        lapic.request(0x30)
        lapic.deliver_highest()
        start = machine.engine.now
        run(machine, hv.complete_virq(vcpu, 0x30))
        cost = machine.engine.now - start
        assert cost > machine.costs.vmexit_hw  # it trapped

    def test_eoi_with_vapic_does_not_trap(self):
        machine = Machine(x86_r320(vapic_enabled=True))
        hv = KvmHypervisor(machine)
        vm = hv.create_vm("vm0", 2, [4, 5])
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        lapic = machine.apic.lapic(vcpu.pcpu.index)
        lapic.request(0x30)
        lapic.deliver_highest()
        start = machine.engine.now
        run(machine, hv.complete_virq(vcpu, 0x30))
        cost = machine.engine.now - start
        assert cost == machine.costs.virq_complete_vapic
        assert cost < 100  # ARM-like, per the paper's vAPIC discussion


class TestIoSignaling:
    def test_kick_fires_before_reentry_completes(self):
        machine, hv, vm = make_kvm()
        vcpu = vm.vcpu(0)
        hv.install_guest(vcpu)
        start = machine.engine.now
        observed = hv.kick_backend(vcpu)
        fired_at = machine.engine.run_until_fired(observed)
        machine.run()
        assert fired_at - start < machine.engine.now - start

    def test_notify_blocked_vm_pays_wakeup(self):
        machine, hv, vm = make_kvm()
        hv.park_vcpu(vm.vcpu(0))
        machine.obs.spans.enabled = True
        done = hv.notify_guest(vm)
        machine.engine.run_until_fired(done)
        machine.run()
        labels = machine.obs.spans.leaf_totals()
        assert labels.get("sched_wakeup") == machine.costs.sched_wakeup
        assert labels.get("host_thread_switch") == machine.costs.host_thread_switch

    def test_notify_running_vm_skips_wakeup(self):
        machine, hv, vm = make_kvm()
        hv.install_guest(vm.vcpu(0))
        machine.obs.spans.enabled = True
        done = hv.notify_guest(vm)
        machine.engine.run_until_fired(done)
        machine.run()
        labels = machine.obs.spans.leaf_totals()
        assert "sched_wakeup" not in labels
        assert labels.get("gic_phys_ack") == machine.costs.gic_phys_ack

    def test_virq_life_cycle_through_list_registers(self):
        machine, hv, vm = make_kvm()
        hv.park_vcpu(vm.vcpu(0))
        done = hv.notify_guest(vm)
        fired_at = machine.engine.run_until_fired(done)
        machine.run()
        # Delivery fired, and the guest handler then completed the virq
        # (after the measured window), leaving the LRs clean.
        vif = vm.vcpu(0).vif
        assert all(lr.state == "empty" for lr in vif.list_registers)
        assert not vif.overflow
        assert machine.engine.now >= fired_at + machine.costs.virq_complete_hw

    def test_irq_affinity_round_robin(self):
        _machine, _hv, vm = make_kvm()
        vm.irq_affinity = [0, 1]
        assert vm.next_irq_vcpu().index == 0
        assert vm.next_irq_vcpu().index == 1
        assert vm.next_irq_vcpu().index == 0


class TestVirtualIpi:
    def test_requires_distinct_pcpus(self):
        _machine, hv, vm = make_kvm()
        with pytest.raises(ConfigurationError):
            hv.send_virtual_ipi(vm.vcpu(0), vm.vcpu(0))

    def test_receiver_handles_injected_ipi(self):
        machine, hv, vm = make_kvm()
        hv.install_guest(vm.vcpu(0))
        hv.install_guest(vm.vcpu(1))
        done = hv.send_virtual_ipi(vm.vcpu(0), vm.vcpu(1))
        fired_at = machine.engine.run_until_fired(done)
        assert fired_at > machine.costs.ipi_wire
        machine.run()
        assert vm.vcpu(1).state == VcpuState.GUEST


class TestVirtioRefill:
    def test_refill_rx_fills_the_ring_with_distinct_buffers(self):
        _machine, _hv, vm = make_kvm()
        device = VirtioNetDevice(vm, queue_size=8)
        assert device.rx.avail_count == 8
        for _ in range(3):
            device.rx.backend_pop()
        device.refill_rx()
        assert device.rx.avail_count == 8
        buffers = [device.rx.backend_pop() for _ in range(8)]
        assert all(buffer == {"empty": True} for buffer in buffers)
        assert len({id(buffer) for buffer in buffers}) == 8
        device.refill_rx()
        assert device.rx.avail_count == 8
