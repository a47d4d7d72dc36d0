"""``python -m repro bench``: the suite's perf trajectory, measured.

Runs the full bench cell grid (every report cell plus the
oversubscription sweep) through the in-process runner and emits a
``BENCH_suite.json`` artifact: wall time and simulated cycles per cell,
cache hit/miss/quarantine counts, and the sha256 of the rendered report
so CI can assert a warm-cache rerun reproduced the suite byte-for-byte
without re-simulating anything.

There is no separate resume: every executed cell is stored in the
cache the moment it finishes, so rerunning ``bench`` on the same cache
after an interrupted run simulates only the cells that are missing.

Document schema (``tools/validate_bench.py`` is the CI check):

.. code-block:: json

    {
      "schema": "repro-bench/1",
      "model_fingerprint": "...",
      "cache": {"enabled": true, "directory": "...", "hits": 0, "misses": 34,
                "quarantined": 0, "write_errors": 0},
      "cells": [
        {"id": "micro[key=kvm-arm]", "kind": "micro", "params": {"key": "kvm-arm"},
         "source": "run", "wall_ms": 12.3, "simulated_cycles": 123456,
         "engines": 2}
      ],
      "totals": {"cells": 34, "wall_ms": 900.1, "simulated_cycles": 1234567890},
      "perf": {
        "fastpath": {"enabled": true, "hits": 120, "misses": 0,
                     "recordings": 10, "rejects": 0, "hit_rate": 0.92},
        "probe": {"ops": 20000,
                  "interp": {"wall_s": 0.8, "cycles": 65316325,
                             "cycles_per_sec": 81645406.0},
                  "fast": {"wall_s": 0.1, "cycles": 65316325,
                           "cycles_per_sec": 653163250.0},
                  "speedup": 8.0, "cycles_equal": true}
      },
      "report_sha256": "..."
    }

The ``perf`` block is the fast lane's scoreboard: aggregated lane
counters over every freshly-run cell (cache hits contribute nothing —
the lane never enters the cache key) plus a warm-lane throughput probe.
CI gates on ``probe.cycles_equal`` and ``probe.speedup``.

``failed_cells`` is present only when ``--keep-going`` swallowed
failures; the report then carries explicit section-omission markers and
``partial`` is true.
"""

import dataclasses
import hashlib
import json
import os
import time

from repro.runner import cells, merge
from repro.runner.cache import ResultCache, model_fingerprint
from repro.runner.pool import run_cells_outcome

BENCH_SCHEMA = "repro-bench/1"
DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_DOCUMENT_PATH = "BENCH_suite.json"

#: hypercall round trips per mode in the warm-lane throughput probe
PROBE_OPS = 20000


@dataclasses.dataclass
class BenchOutcome:
    """The rendered report plus the BENCH_suite.json document."""

    report: str
    document: dict

    @property
    def summary(self):
        totals = self.document["totals"]
        cache = self.document["cache"]
        text = (
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
        if cache.get("quarantined"):
            text += ", %d quarantined" % cache["quarantined"]
        return text


def run_bench(
    cache_dir=DEFAULT_CACHE_DIR,
    use_cache=True,
    transactions=cells.DEFAULT_RR_TRANSACTIONS,
    keep_going=False,
    probe_ops=None,
):
    """Run the bench grid; returns a :class:`BenchOutcome`.

    The rendered report is byte-identical to ``suite.full_report()`` —
    the bench grid is a superset of the report cells, and the merge is
    the same code path.  A cell that raises aborts the run with
    :class:`~repro.runner.resilience.CellFailure`; under ``keep_going``
    the run still yields a (partial) report and a document with a
    ``failed_cells`` section.
    """
    cache = ResultCache(cache_dir) if use_cache else None
    specs = cells.bench_cells(transactions)
    start = time.perf_counter()
    outcome = run_cells_outcome(specs, cache=cache, keep_going=keep_going)
    wall_ms = (time.perf_counter() - start) * 1000.0
    report = merge.full_report_text(
        outcome.results, transactions, partial=bool(outcome.failures)
    )
    if probe_ops is None:
        # test seam: REPRO_BENCH_PROBE_OPS shrinks the probe where wall
        # time matters more than a stable speedup figure
        probe_ops = int(os.environ.get("REPRO_BENCH_PROBE_OPS", PROBE_OPS))
    perf = _perf_block(outcome, probe_ops)
    document = _build_document(outcome, cache, cache_dir, wall_ms, report, perf)
    return BenchOutcome(report=report, document=document)


def _fastlane_probe(ops):
    """Warm-lane throughput: the same hypercall storm, lane on vs off.

    The probe forces the lane state explicitly (independent of
    ``REPRO_FASTPATH``) so the fastpath-off CI run still measures — and
    gates on — the same speedup.  ``cycles`` must be identical in both
    modes; ``wall_s`` is host time, legitimate here because it measures
    the runner's own throughput, never the model.
    """
    from repro.core.testbed import build_testbed

    modes = {}
    for mode in ("interp", "fast"):
        bed = build_testbed("kvm-arm")
        bed.machine.fastlane.enabled = mode == "fast"
        hv = bed.hypervisor
        vcpu = bed.vm.vcpu(0)
        hv.install_guest(vcpu)
        engine = bed.engine
        start = time.perf_counter()
        for _ in range(ops):
            engine.spawn(hv.run_hypercall(vcpu), "probe")
            engine.run()
        wall_s = time.perf_counter() - start
        modes[mode] = {
            "wall_s": wall_s,
            "cycles": engine.now,
            "cycles_per_sec": engine.now / wall_s if wall_s > 0 else 0.0,
        }
    interp, fast = modes["interp"], modes["fast"]
    return {
        "ops": ops,
        "interp": interp,
        "fast": fast,
        "speedup": interp["wall_s"] / fast["wall_s"] if fast["wall_s"] > 0 else 0.0,
        "cycles_equal": interp["cycles"] == fast["cycles"],
    }


def _perf_block(outcome, probe_ops):
    from repro.sim.fastpath import fastpath_enabled

    lane = {"hits": 0, "misses": 0, "recordings": 0, "rejects": 0}
    for result in outcome.results.values():
        for name, count in result.fastpath.items():
            lane[name] = lane.get(name, 0) + count
    attempts = sum(lane.values())
    return {
        "fastpath": dict(
            lane,
            enabled=fastpath_enabled(),
            hit_rate=lane["hits"] / attempts if attempts else 0.0,
        ),
        "probe": _fastlane_probe(probe_ops),
    }


def _build_document(outcome, cache, cache_dir, wall_ms, report, perf):
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
        for result in outcome.results.values()
    ]
    cache_block = {"enabled": False, "directory": None, "hits": 0, "misses": 0}
    if cache is not None:
        cache_block.update(
            enabled=True,
            directory=str(cache_dir),
            hits=cache.hits,
            misses=cache.misses,
            quarantined=cache.quarantined,
            write_errors=cache.write_errors,
        )
    document = {
        "schema": BENCH_SCHEMA,
        "model_fingerprint": model_fingerprint(),
        "cache": cache_block,
        "cells": cell_rows,
        "totals": {
            "cells": len(cell_rows),
            "wall_ms": wall_ms,
            "simulated_cycles": sum(row["simulated_cycles"] for row in cell_rows),
        },
        "perf": perf,
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
    }
    if outcome.failures:
        document["partial"] = True
        document["failed_cells"] = [failed.as_dict() for failed in outcome.failures]
    return document


def verify_cache(cache_dir=DEFAULT_CACHE_DIR):
    """``--cache-verify``: re-hash every entry, quarantining mismatches.

    Returns the per-entry report rows from
    :meth:`~repro.runner.cache.ResultCache.verify_entries`.
    """
    return ResultCache(cache_dir).verify_entries()


def write_document(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


#: one-line-per-run scoreboard history (ROADMAP item 5)
HISTORY_SCHEMA = "repro-bench-history/1"


def history_line(document):
    """Distill a bench document into one scoreboard row.

    Enough to plot the suite's throughput trajectory across runs without
    carrying per-cell payloads.
    """
    totals = document["totals"]
    cache = document["cache"]
    fastpath = document["perf"]["fastpath"]
    wall_clock_s = totals["wall_ms"] / 1000.0
    lookups = cache["hits"] + cache["misses"]
    return {
        "schema": HISTORY_SCHEMA,
        "report_sha256": document["report_sha256"],
        "cells": totals["cells"],
        "wall_clock_s": wall_clock_s,
        "cells_per_second": (
            totals["cells"] / wall_clock_s if wall_clock_s > 0 else 0.0
        ),
        "cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "fastpath_enabled": fastpath["enabled"],
        "fastpath_hits": fastpath["hits"],
        "partial": bool(document.get("partial", False)),
    }


def append_history(path, document):
    """Append the run's scoreboard line to a JSONL history file."""
    line = history_line(document)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return line
