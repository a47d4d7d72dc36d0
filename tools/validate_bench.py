#!/usr/bin/env python3
"""CI schema smoke for ``BENCH_suite.json`` bench documents.

Checks the contract :mod:`repro.runner.bench` promises: a JSON object
with the ``repro-bench/1`` schema tag, a ``cache`` block with
non-negative hit/miss (and, when present, quarantine/write-error)
counters, a non-empty ``cells`` list where every cell carries
id/kind/params/source and non-negative wall time, simulated cycles and
engine counts, totals that agree with the per-cell rows, and a 64-hex
``report_sha256``.

Optional sections are validated when present: under ``--keep-going``,
a ``partial`` flag and a ``failed_cells`` list whose entries carry
id/kind/params, the error, its traceback and the partial engine and
cycle counts.  Keys written by older
runners (``jobs``, ``resilience``, ``journal``, ``perf``) are ignored.

Usage:
    python tools/validate_bench.py BENCH_suite.json [more.json ...]

Exits 0 when every file validates, 1 otherwise.
"""

import json
import sys

SCHEMA = "repro-bench/1"
CELL_SOURCES = {"run", "cache"}
SHA256_HEX_LEN = 64


def _is_nonneg_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 0


def _is_nonneg_int(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate(path):
    """Return a list of problem strings (empty = valid)."""
    problems = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        return ["cannot load %s: %s" % (path, exc)]
    if not isinstance(document, dict):
        return ["%s: document is not a JSON object" % path]
    if document.get("schema") != SCHEMA:
        problems.append("%s: schema is %r, expected %r" % (path, document.get("schema"), SCHEMA))

    cache = document.get("cache")
    if not isinstance(cache, dict):
        problems.append("%s: cache block missing" % path)
    else:
        if not isinstance(cache.get("enabled"), bool):
            problems.append("%s: cache.enabled is not a bool" % path)
        for key in ("hits", "misses"):
            if not _is_nonneg_int(cache.get(key)):
                problems.append("%s: cache.%s=%r is not a non-negative int" % (path, key, cache.get(key)))
        for key in ("quarantined", "write_errors"):
            if key in cache and not _is_nonneg_int(cache[key]):
                problems.append("%s: cache.%s=%r is not a non-negative int" % (path, key, cache[key]))

    cells = document.get("cells")
    if not isinstance(cells, list) or not cells:
        problems.append("%s: cells missing or empty" % path)
        cells = []
    cycles_total = 0
    for index, cell in enumerate(cells):
        if not isinstance(cell, dict):
            problems.append("%s: cell %d is not an object" % (path, index))
            continue
        for key in ("id", "kind"):
            if not isinstance(cell.get(key), str) or not cell.get(key):
                problems.append("%s: cell %d %s=%r is not a non-empty string" % (path, index, key, cell.get(key)))
        if not isinstance(cell.get("params"), dict):
            problems.append("%s: cell %d params is not an object" % (path, index))
        if cell.get("source") not in CELL_SOURCES:
            problems.append("%s: cell %d source=%r not in %s" % (path, index, cell.get("source"), sorted(CELL_SOURCES)))
        if not _is_nonneg_number(cell.get("wall_ms")):
            problems.append("%s: cell %d wall_ms=%r is not a non-negative number" % (path, index, cell.get("wall_ms")))
        for key in ("simulated_cycles", "engines"):
            if not _is_nonneg_int(cell.get(key)):
                problems.append("%s: cell %d %s=%r is not a non-negative int" % (path, index, key, cell.get(key)))
        if _is_nonneg_int(cell.get("simulated_cycles")):
            cycles_total += cell["simulated_cycles"]

    totals = document.get("totals")
    if not isinstance(totals, dict):
        problems.append("%s: totals block missing" % path)
    else:
        if totals.get("cells") != len(cells):
            problems.append("%s: totals.cells=%r but %d cells listed" % (path, totals.get("cells"), len(cells)))
        if not _is_nonneg_number(totals.get("wall_ms")):
            problems.append("%s: totals.wall_ms=%r is not a non-negative number" % (path, totals.get("wall_ms")))
        if not problems and totals.get("simulated_cycles") != cycles_total:
            problems.append(
                "%s: totals.simulated_cycles=%r but cells sum to %d" % (path, totals.get("simulated_cycles"), cycles_total)
            )

    problems.extend(_validate_failed_cells(path, document))

    digest = document.get("report_sha256")
    if (
        not isinstance(digest, str)
        or len(digest) != SHA256_HEX_LEN
        or any(ch not in "0123456789abcdef" for ch in digest)
    ):
        problems.append("%s: report_sha256=%r is not 64 lowercase hex chars" % (path, digest))
    return problems


def _validate_failed_cells(path, document):
    """Problems in the optional ``partial``/``failed_cells`` sections."""
    problems = []
    if "partial" in document and not isinstance(document["partial"], bool):
        problems.append("%s: partial=%r is not a bool" % (path, document["partial"]))
    if "failed_cells" not in document:
        return problems
    failed_cells = document["failed_cells"]
    if not isinstance(failed_cells, list):
        return problems + ["%s: failed_cells is not a list" % path]
    if failed_cells and document.get("partial") is not True:
        problems.append("%s: failed_cells present but partial is not true" % path)
    for index, failed in enumerate(failed_cells):
        if not isinstance(failed, dict):
            problems.append("%s: failed_cells[%d] is not an object" % (path, index))
            continue
        for key in ("id", "kind"):
            if not isinstance(failed.get(key), str) or not failed.get(key):
                problems.append(
                    "%s: failed_cells[%d] %s=%r is not a non-empty string"
                    % (path, index, key, failed.get(key))
                )
        if not isinstance(failed.get("params"), dict):
            problems.append("%s: failed_cells[%d] params is not an object" % (path, index))
        if not isinstance(failed.get("error"), str) or not failed.get("error"):
            problems.append("%s: failed_cells[%d] error missing" % (path, index))
        if not isinstance(failed.get("traceback"), str):
            problems.append("%s: failed_cells[%d] traceback is not a string" % (path, index))
        for key in ("engines", "simulated_cycles"):
            if not _is_nonneg_int(failed.get(key)):
                problems.append(
                    "%s: failed_cells[%d] %s=%r is not a non-negative int"
                    % (path, index, key, failed.get(key))
                )
    return problems


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in argv:
        problems = validate(path)
        if problems:
            failures += 1
            for problem in problems:
                print("FAIL %s" % problem)
        else:
            print("OK   %s" % path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
