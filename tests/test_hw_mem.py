"""Unit tests for the memory system: Stage-2, TLB shootdown, grants."""

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import ProtocolError
from repro.hw.costs import arm_costs, x86_costs
from repro.hw.mem import GrantTable, TlbShootdownModel
from repro.hw.mem.address import GPA, HPA, PAGE_SIZE, page_of
from repro.hw.mem.grant import grant_copy_cycles
from repro.hw.mem.stage2 import (
    BITS_PER_LEVEL,
    LEVELS,
    Stage2Fault,
    Stage2Tables,
    identity_map,
)

#: every IPA page number the three-level radix can address
MAX_PAGE = (1 << (LEVELS * BITS_PER_LEVEL)) - 1


def reference_indices(page):
    """The original per-level loop that ``Stage2Tables._indices`` replaced."""
    indices = []
    for level in range(LEVELS):
        shift = BITS_PER_LEVEL * (LEVELS - 1 - level)
        indices.append((page >> shift) & ((1 << BITS_PER_LEVEL) - 1))
    return indices


class TestAddresses:
    def test_page_and_offset(self):
        gpa = GPA(0x12345)
        assert gpa.page == 0x12
        assert gpa.offset == 0x345

    def test_typed_repr_distinguishes_spaces(self):
        assert "GPA" in repr(GPA(0x1000))
        assert "HPA" in repr(HPA(0x1000))

    def test_page_of(self):
        assert page_of(PAGE_SIZE * 3 + 5) == 3


class TestStage2:
    def test_walk_translates_with_offset(self):
        tables = Stage2Tables(vmid=1)
        tables.map_page(0x10, 0x99)
        hpa, levels = tables.walk(GPA(0x10 * PAGE_SIZE + 0x123))
        assert hpa == HPA(0x99 * PAGE_SIZE + 0x123)
        assert levels == 3

    def test_unmapped_faults(self):
        tables = Stage2Tables(vmid=1)
        with pytest.raises(Stage2Fault):
            tables.walk(GPA(0x5000))

    def test_write_to_readonly_faults(self):
        tables = Stage2Tables(vmid=1)
        tables.map_page(0x10, 0x99, writable=False)
        tables.walk(GPA(0x10 * PAGE_SIZE))  # read OK
        with pytest.raises(Stage2Fault):
            tables.walk(GPA(0x10 * PAGE_SIZE), write=True)

    def test_pages_far_apart_use_distinct_subtrees(self):
        tables = Stage2Tables(vmid=1)
        tables.map_page(0x1, 0xA)
        tables.map_page(0x40000, 0xB)  # different level-0 index
        assert tables.walk(GPA(0x1 * PAGE_SIZE))[0].page == 0xA
        assert tables.walk(GPA(0x40000 * PAGE_SIZE))[0].page == 0xB
        assert tables.mapped_page_count() == 2

    def test_identity_map(self):
        tables = identity_map(Stage2Tables(2), base_page=0x100, num_pages=4)
        for page in range(0x100, 0x104):
            assert tables.walk(GPA(page * PAGE_SIZE))[0].page == page


class TestStage2Indices:
    @given(st.integers(min_value=0, max_value=MAX_PAGE))
    @example(0)
    @example((1 << BITS_PER_LEVEL) - 1)
    @example(1 << BITS_PER_LEVEL)
    @example(MAX_PAGE)
    def test_matches_reference_loop(self, page):
        assert list(Stage2Tables._indices(page)) == reference_indices(page)

    @given(st.lists(st.integers(min_value=0, max_value=MAX_PAGE), max_size=20))
    def test_map_walk_round_trip(self, pages):
        tables = Stage2Tables(vmid=1)
        for page in pages:
            tables.map_page(page, page ^ 0x5A5A)
        for page in pages:
            assert tables.walk(GPA(page * PAGE_SIZE))[0].page == page ^ 0x5A5A
        assert tables.mapped_page_count() == len(set(pages))


class TestShootdown:
    def test_arm_broadcast_is_constant_in_cpus(self):
        costs = arm_costs()
        small = TlbShootdownModel("arm", costs, 2).invalidate_cycles()
        large = TlbShootdownModel("arm", costs, 8).invalidate_cycles()
        assert small == large == costs.tlb_invalidate_broadcast

    def test_x86_ipi_scales_with_cpus(self):
        """The paper's zero-copy story: x86 must IPI every other CPU."""
        costs = x86_costs()
        four = TlbShootdownModel("x86", costs, 4).invalidate_cycles()
        eight = TlbShootdownModel("x86", costs, 8).invalidate_cycles()
        assert eight == four * 7 / 3
        assert four == costs.tlb_invalidate_ipi * 3


class TestGrantTable:
    def test_grant_map_unmap_cycle(self):
        table = GrantTable("domU")
        ref = table.grant(0x100)
        entry = table.map_grant(ref, "dom0")
        assert entry.gpa_page == 0x100
        table.unmap_grant(ref, "dom0")
        table.revoke(ref)

    def test_double_map_rejected(self):
        table = GrantTable("domU")
        ref = table.grant(0x100)
        table.map_grant(ref, "dom0")
        with pytest.raises(ProtocolError):
            table.map_grant(ref, "dom0")

    def test_unmap_by_wrong_domain_rejected(self):
        table = GrantTable("domU")
        ref = table.grant(0x100)
        table.map_grant(ref, "dom0")
        with pytest.raises(ProtocolError):
            table.unmap_grant(ref, "evil")

    def test_revoke_while_mapped_rejected(self):
        table = GrantTable("domU")
        ref = table.grant(0x100)
        table.map_grant(ref, "dom0")
        with pytest.raises(ProtocolError):
            table.revoke(ref)

    def test_unknown_ref_rejected(self):
        with pytest.raises(ProtocolError):
            GrantTable("domU").map_grant(42, "dom0")

    def test_counters(self):
        table = GrantTable("domU")
        ref = table.grant(0x1)
        table.map_grant(ref, "dom0")
        table.unmap_grant(ref, "dom0")
        assert (table.maps, table.unmaps) == (1, 1)


class TestGrantCopyCost:
    def test_single_byte_copy_exceeds_3us_at_arm_frequency(self):
        """Paper: 'Each data copy incurs more than 3 us of additional
        latency ... even though only a single byte of data needs to be
        copied.'  3 us at 2.4 GHz is 7,200 cycles."""
        costs = arm_costs()
        shootdown = TlbShootdownModel("arm", costs, 8)
        assert grant_copy_cycles(costs, shootdown, nbytes=1) > 7200 * 0.4

    def test_copy_cost_grows_with_size(self):
        costs = arm_costs()
        shootdown = TlbShootdownModel("arm", costs, 8)
        small = grant_copy_cycles(costs, shootdown, 64)
        big = grant_copy_cycles(costs, shootdown, 64 * 1024)
        assert big > small

