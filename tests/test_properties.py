"""Property-based tests (hypothesis) on core data structures and
simulation invariants."""

from hypothesis import given, settings, strategies as st

from repro.hw.cpu.registers import RegClass, RegisterFile
from repro.hw.irq.gic import VirtualCpuInterface
from repro.hw.mem.address import GPA, PAGE_SIZE
from repro.hw.mem.stage2 import Stage2Tables
from repro.hv.xen.event_channels import EventChannelTable
from repro.sim import Clock, Engine, Timeout

reg_values = st.integers(min_value=0, max_value=2**64 - 1)
page_numbers = st.integers(min_value=0, max_value=2**27 - 1)  # 3x9 bits


class TestRegisterFileProperties:
    @given(st.dictionaries(st.sampled_from(["x0", "x5", "sp", "pc"]), reg_values))
    def test_snapshot_load_round_trip(self, writes):
        regs = RegisterFile([RegClass.GP])
        for name, value in writes.items():
            regs.write(RegClass.GP, name, value)
        image = regs.snapshot()
        other = RegisterFile([RegClass.GP])
        other.load(image)
        for name, value in writes.items():
            assert other.read(RegClass.GP, name) == value

    @given(reg_values, reg_values)
    def test_world_switch_isolation(self, guest_value, host_value):
        """A save/load cycle (what split-mode KVM does per trap) never
        leaks one context's registers into another's."""
        regs = RegisterFile([RegClass.EL1_SYS])
        regs.write(RegClass.EL1_SYS, "ttbr1_el1", guest_value)
        guest_image = regs.snapshot()
        regs.write(RegClass.EL1_SYS, "ttbr1_el1", host_value)
        host_image = regs.snapshot()
        regs.load(guest_image)
        assert regs.read(RegClass.EL1_SYS, "ttbr1_el1") == guest_value
        regs.load(host_image)
        assert regs.read(RegClass.EL1_SYS, "ttbr1_el1") == host_value


class TestStage2Properties:
    @given(st.dictionaries(page_numbers, page_numbers, min_size=1, max_size=50))
    def test_every_mapping_translates_and_count_matches(self, mapping):
        tables = Stage2Tables(vmid=1)
        for gpa_page, hpa_page in mapping.items():
            tables.map_page(gpa_page, hpa_page)
        assert tables.mapped_page_count() == len(mapping)
        for gpa_page, hpa_page in mapping.items():
            hpa, _levels = tables.walk(GPA(gpa_page * PAGE_SIZE + 7))
            assert hpa.page == hpa_page
            assert hpa.offset == 7

    @given(page_numbers)
    def test_offset_preserved_through_translation(self, page):
        tables = Stage2Tables(vmid=1)
        tables.map_page(page, 0x1234)
        for offset in (0, 1, PAGE_SIZE - 1):
            hpa, _ = tables.walk(GPA(page * PAGE_SIZE + offset))
            assert hpa.offset == offset


class TestVgicProperties:
    @given(st.lists(st.integers(32, 1000), min_size=1, max_size=20, unique=True))
    def test_inject_ack_complete_conserves_interrupts(self, virqs):
        """Every injected virq is delivered exactly once, regardless of
        LR pressure (overflow + refill included)."""
        vif = VirtualCpuInterface()
        delivered = []
        for virq in virqs:
            vif.inject(virq)
        while vif.has_pending():
            if vif.pending_count() == 0:
                vif.refill_from_overflow()
                continue
            virq = vif.guest_acknowledge()
            vif.guest_complete(virq)
            delivered.append(virq)
            vif.refill_from_overflow()
        assert sorted(delivered) == sorted(virqs)


class TestEventChannelProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=50))
    def test_sends_toggle_exactly_the_partner_port(self, directions):
        table = EventChannelTable()
        local, remote = table.bind_interdomain("a", "b")
        for from_local in directions:
            port, partner = (local, remote) if from_local else (remote, local)
            table.send(port)
            assert table.is_pending(partner)
            table.consume_pending(partner)
            assert not table.is_pending(partner)


class TestEngineProperties:
    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=30))
    def test_time_is_monotonic_and_ends_at_max(self, delays):
        engine = Engine()
        seen = []

        def proc(delay):
            yield Timeout(delay)
            seen.append(engine.now)

        for delay in delays:
            engine.spawn(proc(delay))
        engine.run()
        assert seen == sorted(seen)
        assert engine.now == max(delays)

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=20))
    def test_sequential_timeouts_sum(self, delays):
        engine = Engine()

        def proc():
            for delay in delays:
                yield Timeout(delay)

        engine.spawn(proc())
        engine.run()
        assert engine.now == sum(delays)


class TestClockProperties:
    @given(st.integers(0, 10**12))
    def test_cycles_to_us_round_trip(self, cycles):
        clock = Clock(2.4e9)
        assert clock.cycles_from_us(clock.us_from_cycles(cycles)) == cycles

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_conversion_monotonic(self, us):
        clock = Clock(2.1e9)
        assert clock.cycles_from_us(us) <= clock.cycles_from_us(us + 1.0)
