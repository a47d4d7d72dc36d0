"""Suite execution: plan cells, run them in process, cache, merge.

The runner decomposes the full evaluation suite into independent
*cells* (:mod:`repro.runner.cells`), runs each one in this process or
serves it straight out of the content-addressed on-disk cache
(:mod:`repro.runner.pool`, :mod:`repro.runner.cache`), and
deterministically merges the payloads back into the exact shapes and
bytes the serial suite always produced (:mod:`repro.runner.merge`).

There is no worker pool: the whole bench grid is 32 cells of at most
~20 ms each, and DESIGN.md "Runner" records the measurement showing a
spawn pool costs more than it saves.  A cell that raises fails once —
the run aborts with a structured :class:`CellFailure`, or records a
:class:`FailedCell` under ``keep_going``.  Cache entries carry a
payload sha256 that is verified on every read; a corrupt entry is
quarantined and re-simulated (:mod:`repro.runner.resilience` holds the
failure records and the digest).

``repro.core.suite`` routes every ``*_report``/``*_data`` entry point
through here, so callers get deduplication (Table II and the VHE
comparison share their KVM ARM cells) and caching for free.  The
default plan is uncached; ``REPRO_CACHE_DIR=PATH`` reuses cached cell
results keyed by the model fingerprint, live cost tables, and cell
parameters.

``python -m repro bench`` (:mod:`repro.runner.bench`) runs the full
grid plus the oversubscription sweep and emits ``BENCH_suite.json``.
"""

import os

from repro.runner import bench, cache, cells, merge, pool, resilience
from repro.runner.cache import ResultCache
from repro.runner.cells import (
    COSTS_PARAM,
    CellSpec,
    strip_cost_overrides,
    with_cost_overrides,
)
from repro.runner.pool import (
    CellResult,
    RunOutcome,
    execute_cell,
    run_cells,
    run_cells_outcome,
)
from repro.runner.resilience import CellExecutionError, CellFailure, FailedCell


def run_plan(specs, cache_dir=None):
    """Run cells in process, cached under ``cache_dir`` or ``REPRO_CACHE_DIR``."""
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    return run_cells(specs, cache=ResultCache(cache_dir) if cache_dir else None)


__all__ = [
    "COSTS_PARAM",
    "CellExecutionError",
    "CellFailure",
    "CellResult",
    "CellSpec",
    "FailedCell",
    "ResultCache",
    "RunOutcome",
    "bench",
    "cache",
    "cells",
    "execute_cell",
    "merge",
    "pool",
    "resilience",
    "run_cells",
    "run_cells_outcome",
    "run_plan",
    "strip_cost_overrides",
    "with_cost_overrides",
]
