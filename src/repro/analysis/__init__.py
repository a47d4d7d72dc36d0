"""Model-integrity static analysis for the reproduction.

The calibration discipline (DESIGN.md) — primitives live in
``repro.hw.costs``, composed results are *outputs* of executed hypervisor
paths, simulations are deterministic — is what makes the reproduction's
numbers scientifically meaningful.  This package enforces the discipline
mechanically: an AST-based linter (stdlib ``ast`` only) with a small rule
engine, per-line suppression comments, and text/JSON reporters.

Rule catalog:

* ``CAL001`` calibration leakage: cycle-scale numeric literals outside
  ``repro.hw.costs``, and any literal equal to a published Table II/III/V
  cell outside ``repro.paperdata``.
* ``DET001`` determinism: bans ``random``, wall-clock time, ``os.urandom``
  and iteration over bare sets in the model layers (only ``repro.sim.rng``
  may touch ``random``).
* ``COV001`` cost coverage: every primitive in ``repro.hw.costs`` must be
  read by a composed path; references to undefined costs are errors.
* ``API001`` raw magic address: page-scale hex literals must come from
  named module-level constants.

Suppress a finding on one line with ``# repro-lint: ignore[CAL001]`` (a
comma-separated rule list, or no bracket to ignore every rule).

Run it as ``python -m repro.analysis [paths]`` or ``python -m repro lint``.
"""

from repro.analysis.engine import Project, SourceModule, Violation, run_analysis

__all__ = ["Project", "SourceModule", "Violation", "run_analysis"]
