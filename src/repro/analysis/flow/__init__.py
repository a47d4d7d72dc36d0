"""Flow-sensitive analysis: per-function CFGs + architectural effects.

Shared machinery for the path-symmetry rules (SYM001, SYM002):
:mod:`repro.analysis.flow.cfg` builds the control-flow graph and
enumerates acyclic paths; :mod:`repro.analysis.flow.effects` maps
statements to the architectural primitives they invoke.
"""

from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.effects import Extractor, iter_functions

__all__ = ["build_cfg", "Extractor", "iter_functions"]
