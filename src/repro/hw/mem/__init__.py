"""Memory system: address spaces, Stage-2 tables, TLB shootdown, grants."""

from repro.hw.mem.address import GPA, HPA, PAGE_SHIFT, PAGE_SIZE, page_of
from repro.hw.mem.stage2 import Stage2Tables
from repro.hw.mem.tlb import TlbShootdownModel
from repro.hw.mem.grant import GrantTable

__all__ = [
    "GPA",
    "GrantTable",
    "HPA",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "Stage2Tables",
    "TlbShootdownModel",
    "page_of",
]
