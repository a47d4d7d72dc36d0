"""Generate the committed per-cell read sets.

    PYTHONPATH=src python -m repro.runner.readsets --write

A cell's *read set* is the ``ArmCosts``/``X86Costs`` fields it reads at
the default calibration: plain fields by name (``trap_to_el2``), and
each register class of the Table III tables on its own (``save.VGIC``).
The golden cells are the bench grid (:func:`repro.runner.cells.bench_cells`,
which holds every report and VHE cell).  Their read sets are committed
as :mod:`repro.runner.readsets_golden`, so planning a what-if cell needs
no earlier run and a cell id never depends on what a cache holds.

Reads are recorded through the same restricted tables the guard uses
(:func:`repro.hw.costs.scoped_to` with an empty read set and a
recorder), so the generator sees exactly the reads the guard would
refuse.  Without ``--write`` the module text goes to standard output; a
tier-1 test regenerates it and fails when it differs from the committed
module.
"""

import argparse
import json
import pathlib
import sys

from repro.hw import costs as hw_costs
from repro.runner import cells

#: the committed module this generator writes
GOLDEN_PATH = pathlib.Path(__file__).with_name("readsets_golden.py")
#: the command that rewrites it
REGENERATE = "PYTHONPATH=src python -m repro.runner.readsets --write"

_HEADER = '''"""Per-cell cost read sets of the golden cells (the bench grid).

Generated by ``%s``;
do not edit.  Keyed by base cell id; each value is the sorted cost fields of
the cell's architecture that it reads (see :mod:`repro.runner.readsets`).
"""

''' % REGENERATE


def record(spec):
    """The sorted cost fields one cell reads at the default calibration."""
    found = set()
    with hw_costs.scoped_to(cells.cell_arch(spec), frozenset(), found):
        cells.CELL_KINDS[spec.kind](spec.params_dict())
    return tuple(sorted(found))


def generate():
    """``{cell id: read set}`` over the golden cells, in grid order."""
    return {spec.id: record(spec) for spec in cells.bench_cells()}


def render(read_sets):
    """The source text of :mod:`repro.runner.readsets_golden`."""
    lines = ["READ_SETS = {"]
    for cell_id, fields in read_sets.items():
        lines.append("    %s: (" % json.dumps(cell_id))
        lines.extend("        %s," % json.dumps(field) for field in fields)
        lines.append("    ),")
    lines.append("}")
    return _HEADER + "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner.readsets",
        description="Regenerate the committed per-cell cost read sets.",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="rewrite %s instead of printing it" % GOLDEN_PATH.name,
    )
    args = parser.parse_args(argv)
    text = render(generate())
    if args.write:
        GOLDEN_PATH.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
