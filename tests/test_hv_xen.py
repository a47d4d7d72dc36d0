"""Unit tests for the Xen hypervisor model: domains, evtchn, netback."""

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.hv import XenHypervisor, build_hypervisor
from repro.hv.base import VcpuState
from repro.hv.xen.event_channels import EventChannelTable
from repro.hv.xen.sched_credit import CreditScheduler
from repro.hv.xen.xen import IDLE
from repro.hw.cpu.registers import RegClass
from repro.hw.dev.nic import Packet
from repro.hw.platform import Machine, arm_m400, x86_r320


def make_xen(arch="arm"):
    platform = arm_m400() if arch == "arm" else x86_r320()
    machine = Machine(platform)
    hv = XenHypervisor(machine)
    hv.boot_dom0(num_vcpus=4, pcpu_indices=(0, 1, 2, 3))
    domu = hv.create_vm("vm0", 4, [4, 5, 6, 7])
    return machine, hv, domu


def run(machine, generator):
    machine.engine.spawn(generator, "test")
    machine.run()


class TestConstruction:
    def test_factory_rejects_xen_vhe(self):
        with pytest.raises(ConfigurationError):
            build_hypervisor("xen", Machine(arm_m400()), vhe=True)

    def test_double_dom0_rejected(self):
        _machine, hv, _domu = make_xen()
        with pytest.raises(ConfigurationError):
            hv.boot_dom0()

    def test_domu_gets_netback_and_event_channels(self):
        _machine, hv, domu = make_xen()
        assert domu.name in hv.netback_workers
        assert domu.name in hv._io_ports

    def test_all_pcpus_start_idle(self):
        machine, _hv, _domu = make_xen()
        assert all(pcpu.current_context is IDLE for pcpu in machine.pcpus)


class TestHypercall:
    def test_stays_in_el2_and_preserves_guest_el1(self):
        """The Type 1 advantage: no EL1 state is context switched."""
        machine, hv, domu = make_xen()
        vcpu = domu.vcpu(0)
        hv.install_guest(vcpu)
        arch = vcpu.pcpu.arch
        arch.regs.write(RegClass.EL1_SYS, "ttbr1_el1", 0x5555)
        machine.obs.spans.enabled = True
        run(machine, hv.run_hypercall(vcpu))
        labels = machine.obs.spans.leaf_totals()
        assert not any("el1_sys" in label for label in labels)
        assert arch.regs.read(RegClass.EL1_SYS, "ttbr1_el1") == 0x5555

    def test_cost_is_composed_from_light_primitives(self):
        machine, hv, domu = make_xen()
        vcpu = domu.vcpu(0)
        hv.install_guest(vcpu)
        start = machine.engine.now
        run(machine, hv.run_hypercall(vcpu))
        costs = machine.costs
        expected = (
            costs.trap_to_el2
            + costs.gp_save_light
            + costs.xen_dispatch
            + costs.gp_restore_light
            + costs.eret_to_el1
        )
        assert machine.engine.now - start == expected

    def test_trap_from_wrong_pcpu_rejected(self):
        from repro.errors import HardwareFault

        machine, hv, domu = make_xen()
        vcpu = domu.vcpu(0)  # never installed
        machine.engine.spawn(hv.run_hypercall(vcpu), "bad")
        with pytest.raises(HardwareFault):
            machine.run()


class TestDomainSwitch:
    def test_switch_moves_full_context_both_ways(self):
        machine, hv, domu = make_xen()
        domu2 = hv.create_vm("vm1", 4, [4, 5, 6, 7])
        a, b = domu.vcpu(0), domu2.vcpu(0)
        hv.install_guest(a)
        hv.park_vcpu(b)
        arch = a.pcpu.arch
        arch.regs.write(RegClass.GP, "x0", 0xA)
        b.saved_context[RegClass.GP]["x0"] = 0xB
        run(machine, hv.switch_vm(a, b))
        assert arch.regs.read(RegClass.GP, "x0") == 0xB
        assert a.saved_context[RegClass.GP]["x0"] == 0xA
        assert a.state == VcpuState.BLOCKED
        assert b.state == VcpuState.GUEST

    def test_idle_to_domain_switch_costs_like_vm_switch(self):
        """The paper's I/O latency insight: waking an idling Dom0 pays a
        full VM switch, not a cheap resume."""
        machine, hv, domu = make_xen()
        dom0_vcpu = hv.dom0.vcpu(0)
        machine.obs.spans.enabled = True
        run(machine, hv._domain_switch(dom0_vcpu.pcpu, dom0_vcpu))
        labels = machine.obs.spans.leaf_totals()
        assert labels["save_vgic"] == machine.costs.save[RegClass.VGIC]
        assert labels["xen_ctx_extra"] == machine.costs.xen_ctx_extra


class TestEventChannels:
    def test_bind_and_send(self):
        table = EventChannelTable()
        local, remote = table.bind_interdomain("domU.vcpu0", "dom0.vcpu0")
        target = table.send(local)
        assert target == "dom0.vcpu0"
        assert table.is_pending(remote)
        table.consume_pending(remote)
        assert not table.is_pending(remote)

    def test_send_is_symmetric(self):
        table = EventChannelTable()
        local, remote = table.bind_interdomain("a", "b")
        assert table.send(remote) == "a"
        assert table.is_pending(local)

    def test_consume_without_pending_rejected(self):
        table = EventChannelTable()
        local, _remote = table.bind_interdomain("a", "b")
        with pytest.raises(ProtocolError):
            table.consume_pending(local)

    def test_unknown_port_rejected(self):
        with pytest.raises(ProtocolError):
            EventChannelTable().send(42)


class TestCreditScheduler:
    def test_pick_highest_credit(self):
        machine, hv, domu = make_xen()
        sched = CreditScheduler()
        a, b = domu.vcpu(0), domu.vcpu(1)
        # Re-register on a private scheduler to control credits directly.
        sched.register(a)
        sched.register(b)
        sched.wake(a)
        sched.wake(b)
        sched.tick()
        sched.charge(a, 1000)
        # Both pinned to different pcpus; pick per pcpu.
        assert sched.pick_next(a.pcpu.index) is a  # alone on its queue
        sched.block(a)
        assert sched.pick_next(a.pcpu.index) is None

    def test_tick_refills_proportional_to_weight(self):
        machine, hv, domu = make_xen()
        sched = CreditScheduler()
        a, b = domu.vcpu(0), domu.vcpu(1)
        sched.register(a, weight=256)
        sched.register(b, weight=768)
        sched.tick()
        assert sched.credits_of(b) == 3 * sched.credits_of(a)

    def test_double_register_rejected(self):
        machine, hv, domu = make_xen()
        sched = CreditScheduler()
        sched.register(domu.vcpu(0))
        with pytest.raises(ConfigurationError):
            sched.register(domu.vcpu(0))


class TestIoPaths:
    def test_kick_switches_idle_to_dom0_before_netback_sees_it(self):
        machine, hv, domu = make_xen()
        vcpu = domu.vcpu(0)
        hv.install_guest(vcpu)
        hv.park_vcpu(hv.dom0.vcpu(0))
        machine.obs.spans.enabled = True
        observed = hv.kick_backend(vcpu)
        machine.engine.run_until_fired(observed)
        machine.run()
        labels = machine.obs.spans.leaf_totals()
        assert "xen_ctx_extra" in labels  # the idle->Dom0 switch happened
        assert "netback_kick" in labels
        assert hv.dom0.vcpu(0).state == VcpuState.GUEST

    def test_kick_with_dom0_running_skips_switch(self):
        machine, hv, domu = make_xen()
        vcpu = domu.vcpu(0)
        hv.install_guest(vcpu)
        hv.install_guest(hv.dom0.vcpu(0))
        machine.obs.spans.enabled = True
        observed = hv.kick_backend(vcpu)
        machine.engine.run_until_fired(observed)
        machine.run()
        labels = machine.obs.spans.leaf_totals()
        assert "xen_ctx_extra" not in labels

    def test_notify_guest_switches_idle_to_domu(self):
        machine, hv, domu = make_xen()
        hv.install_guest(hv.dom0.vcpu(0))
        hv.park_vcpu(domu.vcpu(0))
        done = hv.notify_guest(domu)
        machine.engine.run_until_fired(done)
        machine.run()
        assert domu.vcpu(0).state == VcpuState.GUEST

    def test_tx_packet_pays_grant_copy(self):
        machine, hv, domu = make_xen()
        vcpu = domu.vcpu(0)
        hv.install_guest(vcpu)
        hv.park_vcpu(hv.dom0.vcpu(0))
        grants = hv.grant_tables[domu.name]
        packet = Packet(1500)
        observed = hv.kick_backend(vcpu, packet=packet)
        machine.engine.run_until_fired(observed)
        machine.run()
        assert grants.maps == 1
        assert grants.unmaps == 1
        assert "host.tx" in packet.stamps

    def test_grant_copy_leaves_no_dangling_mappings(self):
        machine, hv, domu = make_xen()
        vcpu = domu.vcpu(0)
        hv.install_guest(vcpu)
        hv.park_vcpu(hv.dom0.vcpu(0))
        for _ in range(5):
            observed = hv.kick_backend(vcpu, packet=Packet(64))
            machine.engine.run_until_fired(observed)
            machine.run()
        assert hv.grant_tables[domu.name].active_mappings() == 0

    def test_stats_count_vm_switches(self):
        machine, hv, domu = make_xen()
        vcpu = domu.vcpu(0)
        hv.install_guest(vcpu)
        hv.park_vcpu(hv.dom0.vcpu(0))
        switches = machine.obs.metrics.counter("hv.vm_switches")
        before = switches.value
        observed = hv.kick_backend(vcpu)
        machine.engine.run_until_fired(observed)
        machine.run()
        assert switches.value == before + 1


class TestX86Xen:
    def test_hypercall_cost(self):
        machine, hv, domu = make_xen(arch="x86")
        vcpu = domu.vcpu(0)
        hv.install_guest(vcpu)
        start = machine.engine.now
        run(machine, hv.run_hypercall(vcpu))
        costs = machine.costs
        assert machine.engine.now - start == (
            costs.vmexit_hw + costs.xen_dispatch + costs.vmentry_hw
        )

    def test_vm_switch_heavier_than_kvm(self):
        """Paper Table II: Xen x86 VM switches cost ~2x KVM x86's."""
        machine, hv, domu = make_xen(arch="x86")
        domu2 = hv.create_vm("vm1", 4, [4, 5, 6, 7])
        a, b = domu.vcpu(0), domu2.vcpu(0)
        hv.install_guest(a)
        hv.park_vcpu(b)
        start = machine.engine.now
        run(machine, hv.switch_vm(a, b))
        xen_cost = machine.engine.now - start

        from repro.hv import KvmHypervisor

        machine2 = Machine(x86_r320())
        kvm = KvmHypervisor(machine2)
        kvm_vm = kvm.create_vm("vm0", 4, [4, 5, 6, 7])
        kvm_vm2 = kvm.create_vm("vm1", 4, [4, 5, 6, 7])
        kvm.install_guest(kvm_vm.vcpu(0))
        kvm.park_vcpu(kvm_vm2.vcpu(0))
        start = machine2.engine.now
        run(machine2, kvm.switch_vm(kvm_vm.vcpu(0), kvm_vm2.vcpu(0)))
        kvm_cost = machine2.engine.now - start
        assert xen_cost > 1.8 * kvm_cost
