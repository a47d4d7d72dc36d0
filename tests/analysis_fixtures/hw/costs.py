"""COV001 fixture cost model (mimics the shape of ``repro.hw.costs``)."""

import dataclasses


@dataclasses.dataclass
class FixtureCosts:
    #: read by full_save_cycles below — covered
    trap_to_el2: int = 76
    eret_to_el1: int = 64
    #: defined but never read anywhere in the fixture tree
    orphaned_primitive: int = 123  # expect: COV001
    #: also unread, but the calibrator explicitly waived it
    reviewed_future_primitive: int = 321  # repro-lint: ignore[COV001]

    def full_save_cycles(self):
        return self.trap_to_el2 + self.eret_to_el1
