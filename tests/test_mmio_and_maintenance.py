"""Tests for Stage-2-fault-driven MMIO traps and GIC maintenance IRQs."""

import pytest

from repro.core.testbed import build_testbed
from repro.errors import HardwareFault
from repro.hv.base import GICD_BASE_GPA, GUEST_RAM_BASE_PAGE, VcpuState
from repro.hw.cpu.arm import ExceptionLevel
from repro.hw.mem.address import GPA, PAGE_SIZE
from repro.hw.mem.stage2 import Stage2Fault
from repro.sim import Timeout


class TestMmioTrapMechanism:
    def test_guest_ram_is_mapped_distributor_is_not(self):
        testbed = build_testbed("kvm-arm")
        stage2 = testbed.vm.stage2
        assert stage2.is_mapped(GPA(GUEST_RAM_BASE_PAGE * PAGE_SIZE))
        assert not stage2.is_mapped(GPA(GICD_BASE_GPA))

    def test_distributor_access_raises_stage2_fault(self):
        testbed = build_testbed("kvm-arm")
        with pytest.raises(Stage2Fault):
            testbed.vm.stage2.walk(GPA(GICD_BASE_GPA), write=True)

    def test_fault_syndrome_carries_address_and_direction(self):
        testbed = build_testbed("xen-arm")
        hv = testbed.hypervisor
        fault = hv._distributor_stage2_fault(testbed.vm.vcpu(0))
        assert fault.gpa == GICD_BASE_GPA
        assert fault.write

    def test_mapping_the_distributor_is_detected_as_a_bug(self):
        """If someone maps the GICD region, emulation silently stops
        trapping — the model catches that misconfiguration loudly."""
        testbed = build_testbed("kvm-arm")
        testbed.vm.stage2.map_page(GICD_BASE_GPA >> 12, 0x999)
        with pytest.raises(HardwareFault):
            testbed.hypervisor._distributor_stage2_fault(testbed.vm.vcpu(0))

    def test_each_vm_has_its_own_stage2(self):
        testbed = build_testbed("kvm-arm")
        assert testbed.vm.stage2.vmid != testbed.vm2.stage2.vmid


class TestMaintenanceInterrupts:
    def _storm(self, key, count=7):
        """Inject more virqs than the 4 LRs; drain via ack/complete."""
        testbed = build_testbed(key)
        hv = testbed.hypervisor
        vcpu = testbed.vm.vcpu(0)
        hv.install_guest(vcpu)
        vif = vcpu.vif
        for virq in range(100, 100 + count):
            vif.inject(virq)
        assert vif.overflow  # LR pressure achieved
        delivered = []
        start = testbed.engine.now
        while vif.has_pending():
            if vif.pending_count() == 0:
                break
            virq = vif.guest_acknowledge()
            testbed.engine.spawn(hv.complete_virq(vcpu, virq), "complete")
            testbed.engine.run()
            delivered.append(virq)
        return testbed, delivered, testbed.engine.now - start

    def test_overflowed_virqs_eventually_delivered(self):
        _testbed, delivered, _cycles = self._storm("kvm-arm")
        assert sorted(delivered) == list(range(100, 107))

    @pytest.mark.parametrize("key", ["kvm-arm", "kvm-vhe-arm", "xen-arm"])
    def test_storm_leaves_the_vcpu_in_the_guest(self, key):
        """Every maintenance refill re-enters the guest it trapped out of."""
        testbed, _delivered, _cycles = self._storm(key)
        assert testbed.vm.vcpu(0).state == VcpuState.GUEST

    def test_kvm_maintenance_costs_a_full_exit(self):
        """Refilling LRs costs split-mode KVM a world switch per
        maintenance event; Xen handles it in EL2."""
        _tb, _d, kvm_cycles = self._storm("kvm-arm")
        _tb, _d, xen_cycles = self._storm("xen-arm")
        assert kvm_cycles > xen_cycles
        # Both still delivered the same interrupts:
        assert kvm_cycles > 7 * 71  # far more than bare completions

    def test_xen_refill_that_moves_nothing_still_returns_to_the_guest(self):
        """A virq injected while the maintenance trap is in flight takes the
        LR the completion freed, so the refill moves nothing; Xen must
        still pop the GP bank and eret back to EL1."""
        testbed = build_testbed("xen-arm")
        hv = testbed.hypervisor
        vcpu = testbed.vm.vcpu(0)
        hv.install_guest(vcpu)
        vif = vcpu.vif
        for virq in range(100, 105):
            vif.inject(virq)
        assert len(vif.overflow) == 1
        virq = vif.guest_acknowledge()
        refills = []
        refill_from_overflow = vif.refill_from_overflow

        def recording_refill():
            refills.append(refill_from_overflow())
            return refills[-1]

        vif.refill_from_overflow = recording_refill

        def late_inject():
            yield Timeout(1)
            vif.inject(200)

        testbed.engine.spawn(hv.complete_virq(vcpu, virq), "complete")
        testbed.engine.spawn(late_inject(), "late-inject")
        testbed.engine.run()
        assert refills == [0]
        assert vcpu.pcpu.arch.current_el == ExceptionLevel.EL1

    def test_no_maintenance_without_overflow(self):
        testbed = build_testbed("kvm-arm")
        hv = testbed.hypervisor
        vcpu = testbed.vm.vcpu(0)
        hv.install_guest(vcpu)
        vcpu.vif.inject(100)
        vcpu.vif.guest_acknowledge()
        start = testbed.engine.now
        testbed.engine.spawn(hv.complete_virq(vcpu, 100), "complete")
        testbed.engine.run()
        assert testbed.engine.now - start == testbed.machine.costs.virq_complete_hw
