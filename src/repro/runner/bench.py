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

Document schema (:func:`check_document` checks it; CI runs it on every
bench document through ``python -m repro check``):

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
from repro.runner.pool import SOURCES, run_cells
from repro.runner.resilience import is_count, is_sha256

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


def _is_duration(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 0


def check_document(document):
    """Problems with a bench document (an empty list when it is valid).

    Checks the schema above: the ``BENCH_SCHEMA`` tag, the ``cache``
    block's counters, a non-empty ``cells`` list whose rows carry
    id/kind/params/source and non-negative wall time, cycles and engine
    counts, totals that agree with the rows, and the report digest.  A
    run with a failed cell writes no document, so a valid one covers
    the whole grid.  Keys older runners wrote (``jobs``, ``resilience``,
    ``journal``, ``perf``, ``partial``, ``failed_cells``) are ignored.
    """
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    problems = []

    def expect(ok, name, value, what):
        if not ok:
            problems.append("%s=%r is not %s" % (name, value, what))

    schema = document.get("schema")
    expect(schema == BENCH_SCHEMA, "schema", schema, repr(BENCH_SCHEMA))
    cache = document.get("cache")
    expect(isinstance(cache, dict), "cache", cache, "an object")
    if isinstance(cache, dict):
        enabled = cache.get("enabled")
        expect(isinstance(enabled, bool), "cache.enabled", enabled, "a bool")
        optional = ("write_errors",) if "write_errors" in cache else ()
        for key in ("hits", "misses") + optional:
            expect(is_count(cache.get(key)), "cache." + key, cache.get(key), "a non-negative int")

    rows = document.get("cells")
    if not isinstance(rows, list) or not rows:
        problems.append("cells missing or empty")
        rows = []
    for index, row in enumerate(rows):
        name = "cell %d" % index
        expect(isinstance(row, dict), name, row, "an object")
        if not isinstance(row, dict):
            continue
        for key in ("id", "kind"):
            value = row.get(key)
            expect(isinstance(value, str) and value, name + " " + key, value, "a non-empty string")
        params, source = row.get("params"), row.get("source")
        expect(isinstance(params, dict), name + " params", params, "an object")
        expect(source in SOURCES, name + " source", source, "one of %s" % (SOURCES,))
        wall = row.get("wall_ms")
        expect(_is_duration(wall), name + " wall_ms", wall, "a non-negative number")
        for key in ("simulated_cycles", "engines"):
            expect(is_count(row.get(key)), name + " " + key, row.get(key), "a non-negative int")

    totals = document.get("totals")
    expect(isinstance(totals, dict), "totals", totals, "an object")
    if isinstance(totals, dict):
        expect(totals.get("cells") == len(rows), "totals.cells", totals.get("cells"),
               "the %d cells listed" % len(rows))
        wall = totals.get("wall_ms")
        expect(_is_duration(wall), "totals.wall_ms", wall, "a non-negative number")
        if not problems:  # the cycle sum is only meaningful over valid rows
            cycles = sum(row["simulated_cycles"] for row in rows)
            expect(totals.get("simulated_cycles") == cycles, "totals.simulated_cycles",
                   totals.get("simulated_cycles"), "the cells' sum %d" % cycles)
    digest = document.get("report_sha256")
    expect(is_sha256(digest), "report_sha256", digest, "64 lowercase hex chars")
    return problems
