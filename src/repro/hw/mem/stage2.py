"""Stage-2 page tables: a real 3-level radix translating IPA -> PA.

The hypervisor owns these (configured from EL2 / via EPT on x86).  A walk
costs ``stage2_walk_per_level`` per level on a TLB miss; an unmapped IPA
raises a Stage-2 fault, which is how MMIO emulation traps happen (guest
touches the GIC distributor's IPA range -> fault -> hypervisor emulates).
"""

from repro.errors import HardwareFault
from repro.hw.mem.address import GPA, HPA, PAGE_SHIFT

LEVELS = 3
BITS_PER_LEVEL = 9  # 4K granule, 512 entries per table

#: mask of one level's table index, and the shift of the root level's
_INDEX_MASK = (1 << BITS_PER_LEVEL) - 1
_TOP_SHIFT = BITS_PER_LEVEL * (LEVELS - 1)


class Stage2Fault(HardwareFault):
    """Translation fault at Stage 2 (unmapped IPA)."""

    def __init__(self, gpa, write):
        super().__init__("stage-2 fault at %r (%s)" % (gpa, "write" if write else "read"))
        self.gpa = gpa
        self.write = write


class Stage2Tables:
    """A per-VM IPA->PA radix tree with mapping permissions."""

    def __init__(self, vmid):
        self.vmid = vmid
        self._root = {}

    @staticmethod
    def _indices(page):
        """The per-level table indices of ``page``, root level first."""
        return (
            (page >> _TOP_SHIFT) & _INDEX_MASK,
            (page >> BITS_PER_LEVEL) & _INDEX_MASK,
            page & _INDEX_MASK,
        )

    def leaf_table(self, gpa_page):
        """The last-level table covering ``gpa_page``, created if absent
        (512 consecutive pages share one)."""
        top, middle, _leaf = self._indices(gpa_page)
        root = self._root
        table = root.get(top)
        if table is None:
            table = root[top] = {}
        node = table.get(middle)
        if node is None:
            node = table[middle] = {}
        return node

    def map_page(self, gpa_page, hpa_page, writable=True):
        """Install a 4K mapping gpa_page -> hpa_page."""
        self.leaf_table(gpa_page)[gpa_page & _INDEX_MASK] = (hpa_page, writable)

    def unmap_page(self, gpa_page):
        node = self._root
        indices = self._indices(gpa_page)
        for index in indices[:-1]:
            if index not in node:
                raise HardwareFault("unmapping unmapped page 0x%x" % gpa_page)
            node = node[index]
        if indices[-1] not in node:
            raise HardwareFault("unmapping unmapped page 0x%x" % gpa_page)
        del node[indices[-1]]

    def walk(self, gpa, write=False):
        """Translate; returns (HPA, levels_walked).  Faults if unmapped."""
        gpa = GPA(gpa)
        node = self._root
        indices = self._indices(gpa.page)
        for depth, index in enumerate(indices[:-1]):
            if index not in node:
                raise Stage2Fault(gpa, write)
            node = node[index]
        entry = node.get(indices[-1])
        if entry is None:
            raise Stage2Fault(gpa, write)
        hpa_page, writable = entry
        if write and not writable:
            raise Stage2Fault(gpa, write)
        return HPA((hpa_page << PAGE_SHIFT) | gpa.offset), LEVELS

    def is_mapped(self, gpa):
        try:
            self.walk(gpa)
        except Stage2Fault:
            return False
        return True

    def mapped_page_count(self):
        count = 0
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth == LEVELS - 1:
                count += len(node)
            else:
                stack.extend((child, depth + 1) for child in node.values())
        return count


def identity_map(tables, base_page, num_pages, writable=True):
    """Convenience: map a contiguous IPA range 1:1 onto machine pages,
    filling one leaf table at a time."""
    page = base_page
    end = base_page + num_pages
    while page < end:
        stop = min(end, (page | _INDEX_MASK) + 1)
        tables.leaf_table(page).update(
            (gpa_page & _INDEX_MASK, (gpa_page, writable))
            for gpa_page in range(page, stop)
        )
        page = stop
    return tables
