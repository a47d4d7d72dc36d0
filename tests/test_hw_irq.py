"""Unit tests for the GIC, APIC, and IPI fabric."""

import pytest

from repro.errors import HardwareFault
from repro.hw.irq import Apic, Gic, IpiFabric
from repro.hw.irq.gic import NUM_LIST_REGISTERS, VirtualCpuInterface
from repro.hw.platform import Machine, arm_m400
from repro.sim import Engine


class TestVirtualInterface:
    def test_inject_ack_complete_cycle(self):
        vif = VirtualCpuInterface()
        assert vif.inject(27)
        assert vif.has_pending()
        assert vif.guest_acknowledge() == 27
        vif.guest_complete(27)
        assert not vif.has_pending()

    def test_complete_without_ack_faults(self):
        """Completing a virq that was never made active is a guest bug the
        hardware (and our model) rejects."""
        vif = VirtualCpuInterface()
        vif.inject(27)
        with pytest.raises(HardwareFault):
            vif.guest_complete(27)

    def test_ack_with_nothing_pending_faults(self):
        with pytest.raises(HardwareFault):
            VirtualCpuInterface().guest_acknowledge()

    def test_overflow_beyond_list_registers(self):
        vif = VirtualCpuInterface()
        for virq in range(NUM_LIST_REGISTERS):
            assert vif.inject(100 + virq)
        assert not vif.inject(999)  # no free LR
        assert vif.overflow == [999]

    def test_refill_from_overflow(self):
        vif = VirtualCpuInterface()
        for virq in range(NUM_LIST_REGISTERS + 2):
            vif.inject(virq)
        virq = vif.guest_acknowledge()
        vif.guest_complete(virq)
        assert vif.refill_from_overflow() == 1
        assert len(vif.overflow) == 1


class TestGic:
    def test_virtual_interface_created_per_key(self):
        gic = Gic()
        a = gic.virtual_interface("vm0.vcpu0")
        assert gic.virtual_interface("vm0.vcpu0") is a
        assert gic.virtual_interface("vm0.vcpu1") is not a


class TestApic:
    def test_ipi_requests_vector(self):
        apic = Apic(4)
        apic.send_ipi(2, 0xF0)
        assert apic.lapic(2).has_pending()

    def test_deliver_then_eoi(self):
        apic = Apic(2)
        apic.send_ipi(0, 0x40)
        lapic = apic.lapic(0)
        assert lapic.deliver_highest() == 0x40
        lapic.eoi(0x40)
        assert not lapic.isr

    def test_eoi_without_service_faults(self):
        with pytest.raises(HardwareFault):
            Apic(1).lapic(0).eoi(0x40)

    def test_highest_priority_first(self):
        apic = Apic(1)
        apic.send_ipi(0, 0x30)
        apic.send_ipi(0, 0x80)
        assert apic.lapic(0).deliver_highest() == 0x80

    def test_unknown_lapic_rejected(self):
        with pytest.raises(HardwareFault):
            Apic(2).lapic(5)


class TestIpiFabric:
    def test_delivery_after_wire_delay(self):
        machine = Machine(arm_m400())
        got = []

        def handler_gen(pcpu, irq, payload):
            got.append((machine.engine.now, pcpu.index, irq, payload))
            if False:
                yield
            return

        machine.pcpu(3).irq_handler = handler_gen
        machine.ipi.send(machine.pcpu(3), irq=1, payload="hi")
        machine.run()
        assert got == [(machine.costs.ipi_wire, 3, 1, "hi")]
        assert machine.ipi.sent == 1

    def test_no_handler_faults(self):
        machine = Machine(arm_m400())
        machine.ipi.send(machine.pcpu(0), irq=1)
        with pytest.raises(HardwareFault):
            machine.run()

    def test_no_target_rejected(self):
        fabric = IpiFabric(Engine(), 100)
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fabric.send(None, irq=1)
