"""``python -m repro bench``: the suite's perf trajectory, measured.

Runs the full bench cell grid (every report cell plus the
oversubscription sweep) through the in-process runner and emits a
``BENCH_suite.json`` artifact: wall time and simulated cycles per cell,
cache hit/miss counts, and the sha256 of the rendered report so CI can
assert a warm-cache rerun reproduced the suite byte-for-byte without
re-simulating anything.

A cell that raises fails the run: ``run_bench`` raises
:class:`~repro.runner.resilience.CellFailure` and no document is
written.  There is no separate resume: every executed cell is stored in
the cache the moment it finishes, so rerunning ``bench`` on the same
cache after a failed or interrupted run simulates only the cells that
are missing.

Document schema (``tools/validate_bench.py`` is the CI check):

.. code-block:: json

    {
      "schema": "repro-bench/1",
      "model_fingerprint": "...",
      "cache": {"enabled": true, "directory": "...", "hits": 0, "misses": 32,
                "write_errors": 0},
      "cells": [
        {"id": "micro[key=kvm-arm]", "kind": "micro", "params": {"key": "kvm-arm"},
         "source": "run", "wall_ms": 12.3, "simulated_cycles": 123456,
         "engines": 2}
      ],
      "totals": {"cells": 32, "wall_ms": 900.1, "simulated_cycles": 1234567890},
      "report_sha256": "..."
    }
"""

import dataclasses
import hashlib
import json
import time

from repro.runner import cells, merge
from repro.runner.cache import ResultCache, model_fingerprint
from repro.runner.pool import run_cells

BENCH_SCHEMA = "repro-bench/1"
DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_DOCUMENT_PATH = "BENCH_suite.json"


@dataclasses.dataclass
class BenchOutcome:
    """The rendered report plus the BENCH_suite.json document."""

    report: str
    document: dict

    @property
    def summary(self):
        totals = self.document["totals"]
        cache = self.document["cache"]
        return (
            "bench: %d cells in %.0f ms wall (%d simulated cycles), "
            "cache %s: %d hits / %d misses"
            % (
                totals["cells"],
                totals["wall_ms"],
                totals["simulated_cycles"],
                "on" if cache["enabled"] else "off",
                cache["hits"],
                cache["misses"],
            )
        )


def run_bench(
    cache_dir=DEFAULT_CACHE_DIR,
    use_cache=True,
    transactions=cells.DEFAULT_RR_TRANSACTIONS,
):
    """Run the bench grid; returns a :class:`BenchOutcome`.

    The rendered report is byte-identical to ``suite.full_report()`` —
    the bench grid is a superset of the report cells, and the merge is
    the same code path.  A cell that raises fails the run with
    :class:`~repro.runner.resilience.CellFailure`.
    """
    cache = ResultCache(cache_dir) if use_cache else None
    specs = cells.bench_cells(transactions)
    start = time.perf_counter()
    results = run_cells(specs, cache=cache)
    wall_ms = (time.perf_counter() - start) * 1000.0
    report = merge.full_report_text(results, transactions)
    document = _build_document(results, cache, cache_dir, wall_ms, report)
    return BenchOutcome(report=report, document=document)


def _build_document(results, cache, cache_dir, wall_ms, report):
    cell_rows = [
        {
            "id": result.spec.id,
            "kind": result.spec.kind,
            "params": result.spec.params_dict(),
            "source": result.source,
            "wall_ms": result.wall_ms,
            "simulated_cycles": result.simulated_cycles,
            "engines": result.engines,
        }
        for result in results.values()
    ]
    cache_block = {"enabled": False, "directory": None, "hits": 0, "misses": 0}
    if cache is not None:
        cache_block.update(
            enabled=True,
            directory=str(cache_dir),
            hits=cache.hits,
            misses=cache.misses,
            write_errors=cache.write_errors,
        )
    return {
        "schema": BENCH_SCHEMA,
        "model_fingerprint": model_fingerprint(),
        "cache": cache_block,
        "cells": cell_rows,
        "totals": {
            "cells": len(cell_rows),
            "wall_ms": wall_ms,
            "simulated_cycles": sum(row["simulated_cycles"] for row in cell_rows),
        },
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
    }


def write_document(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")

