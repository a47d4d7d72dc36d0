"""Unit tests for devices, wire, and the platform/machine assembly."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.dev import Nic, Packet, Wire
from repro.hw.dev.block import raid5_hd, sata_ssd
from repro.hw.platform import Machine, Platform, arm_m400, x86_r320
from repro.sim import Clock, Engine, Timeout


class TestPacket:
    def test_stamps_and_interval(self):
        packet = Packet(64)
        packet.stamp("a", 100)
        packet.stamp("b", 350)
        assert packet.interval("a", "b") == 250

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            Packet(-1)

    def test_ids_are_unique(self):
        assert Packet(1).id != Packet(1).id


class TestWire:
    def _pair(self):
        engine = Engine()
        clock = Clock(2.4e9)
        wire = Wire(engine, clock)
        a = Nic(engine, "a")
        b = Nic(engine, "b")
        a.attach(wire)
        b.attach(wire)
        return engine, wire, a, b

    def test_packet_crosses_wire(self):
        engine, wire, a, b = self._pair()
        got = []
        b.on_receive = lambda packet: got.append((engine.now, packet))
        packet = Packet(1500)
        a.transmit(packet)
        engine.run()
        assert len(got) == 1
        assert got[0][0] == wire.transfer_cycles(1500)
        assert "a.tx" in packet.stamps
        assert "b.rx" in packet.stamps

    def test_larger_packets_take_longer(self):
        _engine, wire, _a, _b = self._pair()
        assert wire.transfer_cycles(9000) > wire.transfer_cycles(64)

    def test_third_port_rejected(self):
        engine, wire, _a, _b = self._pair()
        with pytest.raises(ConfigurationError):
            Nic(engine, "c").attach(wire)

    def test_transmit_without_wire_rejected(self):
        with pytest.raises(ConfigurationError):
            Nic(Engine(), "lonely").transmit(Packet(64))

    def test_slower_wire_is_slower(self):
        engine = Engine()
        clock = Clock(2.4e9)
        gige = Wire(engine, clock, bandwidth_bps=1e9)
        tengige = Wire(engine, clock, bandwidth_bps=10e9)
        assert gige.transfer_cycles(1500) > tengige.transfer_cycles(1500)


class TestBlockDevices:
    def test_ssd_faster_than_raid_hd(self):
        engine, clock = Engine(), Clock(2.4e9)
        assert sata_ssd(engine, clock).service_cycles(4096) < raid5_hd(
            engine, clock
        ).service_cycles(4096)

    def test_throughput_term_scales(self):
        dev = sata_ssd(Engine(), Clock(2.4e9))
        assert dev.service_cycles(1 << 20) > dev.service_cycles(4096)
        assert dev.requests == 2


class TestPlatform:
    def test_paper_testbed_parameters(self):
        arm = arm_m400()
        x86 = x86_r320()
        assert arm.frequency_hz == 2.4e9 and arm.num_cores == 8
        assert x86.frequency_hz == 2.1e9 and x86.num_cores == 8

    def test_unknown_arch_rejected(self):
        with pytest.raises(ConfigurationError):
            Platform("bad", "mips", 1e9, 4, None)

    def test_machine_has_right_interrupt_hardware(self):
        arm_machine = Machine(arm_m400())
        x86_machine = Machine(x86_r320())
        assert arm_machine.gic is not None and arm_machine.apic is None
        assert x86_machine.apic is not None and x86_machine.gic is None

    def test_pcpu_op_records_when_tracing(self):
        machine = Machine(arm_m400())
        machine.obs.spans.enabled = True
        timeout = machine.pcpu(0).op("save_gp", 152, "save")
        assert isinstance(timeout, Timeout)
        assert timeout.delay == 152
        assert machine.obs.spans.leaf_totals() == {"save_gp": 152}

    def test_pcpu_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Machine(arm_m400()).pcpu(99)

    def test_vhe_flag_propagates_to_cpus(self):
        machine = Machine(arm_m400(vhe_capable=True))
        assert machine.pcpu(0).arch.vhe_capable
