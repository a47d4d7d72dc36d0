#!/usr/bin/env python3
"""CI schema smoke for ``BENCH_suite.json`` bench documents.

Checks the contract :mod:`repro.runner.bench` promises: a JSON object
with the ``repro-bench/1`` schema tag, a ``cache`` block with
non-negative hit/miss (and, when present, quarantine/write-error)
counters, a non-empty ``cells`` list where every cell carries
id/kind/params/source and non-negative wall time, simulated cycles and
engine counts, totals that agree with the per-cell rows, and a 64-hex
``report_sha256``.

Optional sections are validated when present: a ``perf`` block
(fast-lane counters with an in-range hit rate plus a throughput probe
whose ``cycles_equal`` must be true), and — under ``--keep-going`` — a
``partial`` flag and a ``failed_cells`` list whose entries carry
id/kind/params and per-attempt failure records.  Keys written by older
runners (``jobs``, ``resilience``, ``journal``) are ignored.

With ``--history`` the arguments are ``repro-bench-history/1`` JSONL
scoreboard files instead (one line per run, appended by
``python -m repro bench --history PATH``): every line must carry the
schema tag, a 64-hex ``report_sha256``, a positive ``cells`` count (and
a positive ``jobs`` count on lines that still carry one), the
scoreboard throughput figures, the fastpath counters and a ``partial``
flag.

Usage:
    python tools/validate_bench.py BENCH_suite.json [more.json ...]
    python tools/validate_bench.py --history BENCH_history.jsonl

Exits 0 when every file validates, 1 otherwise.
"""

import json
import sys

SCHEMA = "repro-bench/1"
CELL_SOURCES = {"run", "cache"}
SHA256_HEX_LEN = 64
#: scoreboard figures (ROADMAP item 5): run-level throughput numbers
SCOREBOARD_FIELDS = ("wall_clock_s", "cells_per_second", "cache_hit_rate")
ATTEMPT_KINDS = {"exception"}


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

    problems.extend(_validate_perf(path, document))
    problems.extend(_validate_failed_cells(path, document))

    digest = document.get("report_sha256")
    if (
        not isinstance(digest, str)
        or len(digest) != SHA256_HEX_LEN
        or any(ch not in "0123456789abcdef" for ch in digest)
    ):
        problems.append("%s: report_sha256=%r is not 64 lowercase hex chars" % (path, digest))
    return problems


def _validate_perf(path, document):
    """Problems in the optional ``perf`` block (fast-lane scoreboard)."""
    if "perf" not in document:
        return []
    problems = []
    perf = document["perf"]
    if not isinstance(perf, dict):
        return ["%s: perf is not an object" % path]
    lane = perf.get("fastpath")
    if not isinstance(lane, dict):
        problems.append("%s: perf.fastpath is not an object" % path)
    else:
        if not isinstance(lane.get("enabled"), bool):
            problems.append("%s: perf.fastpath.enabled is not a bool" % path)
        for key in ("hits", "misses", "recordings", "rejects"):
            if not _is_nonneg_int(lane.get(key)):
                problems.append(
                    "%s: perf.fastpath.%s=%r is not a non-negative int"
                    % (path, key, lane.get(key))
                )
        hit_rate = lane.get("hit_rate")
        if not (_is_nonneg_number(hit_rate) and hit_rate <= 1.0):
            problems.append(
                "%s: perf.fastpath.hit_rate=%r is not in [0, 1]" % (path, hit_rate)
            )
    probe = perf.get("probe")
    if not isinstance(probe, dict):
        problems.append("%s: perf.probe is not an object" % path)
        return problems
    if not (_is_nonneg_int(probe.get("ops")) and probe.get("ops", 0) >= 1):
        problems.append("%s: perf.probe.ops=%r is not a positive int" % (path, probe.get("ops")))
    for mode in ("interp", "fast"):
        block = probe.get(mode)
        if not isinstance(block, dict):
            problems.append("%s: perf.probe.%s is not an object" % (path, mode))
            continue
        if not _is_nonneg_number(block.get("wall_s")):
            problems.append(
                "%s: perf.probe.%s.wall_s=%r is not a non-negative number"
                % (path, mode, block.get("wall_s"))
            )
        if not _is_nonneg_int(block.get("cycles")):
            problems.append(
                "%s: perf.probe.%s.cycles=%r is not a non-negative int"
                % (path, mode, block.get("cycles"))
            )
        if not _is_nonneg_number(block.get("cycles_per_sec")):
            problems.append(
                "%s: perf.probe.%s.cycles_per_sec=%r is not a non-negative number"
                % (path, mode, block.get("cycles_per_sec"))
            )
    if not _is_nonneg_number(probe.get("speedup")):
        problems.append("%s: perf.probe.speedup=%r is not a non-negative number" % (path, probe.get("speedup")))
    if not isinstance(probe.get("cycles_equal"), bool):
        problems.append("%s: perf.probe.cycles_equal=%r is not a bool" % (path, probe.get("cycles_equal")))
    elif probe["cycles_equal"] is not True:
        problems.append("%s: perf.probe.cycles_equal is false — fast lane diverged" % path)
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
        attempts = failed.get("attempts")
        if not isinstance(attempts, list) or not attempts:
            problems.append("%s: failed_cells[%d] attempts missing or empty" % (path, index))
            continue
        for a_index, attempt in enumerate(attempts):
            where = "failed_cells[%d].attempts[%d]" % (index, a_index)
            if not isinstance(attempt, dict):
                problems.append("%s: %s is not an object" % (path, where))
                continue
            if not _is_nonneg_int(attempt.get("attempt")):
                problems.append(
                    "%s: %s attempt=%r is not a non-negative int" % (path, where, attempt.get("attempt"))
                )
            if attempt.get("kind") not in ATTEMPT_KINDS:
                problems.append(
                    "%s: %s kind=%r not in %s" % (path, where, attempt.get("kind"), sorted(ATTEMPT_KINDS))
                )
            if not isinstance(attempt.get("error"), str) or not attempt.get("error"):
                problems.append("%s: %s error missing" % (path, where))
    return problems


#: ``--history``: one-scoreboard-line-per-run JSONL (ROADMAP item 5)
HISTORY_SCHEMA = "repro-bench-history/1"


def validate_history(path):
    """Problems in a ``repro-bench-history/1`` JSONL scoreboard file."""
    problems = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        return ["%s: cannot read: %s" % (path, exc)]
    if not lines:
        return ["%s: history has no scoreboard lines" % path]
    for number, raw in enumerate(lines, start=1):
        where = "%s:%d" % (path, number)
        try:
            row = json.loads(raw)
        except ValueError as exc:
            problems.append("%s: not JSON: %s" % (where, exc))
            continue
        if not isinstance(row, dict):
            problems.append("%s: scoreboard line must be an object" % where)
            continue
        if row.get("schema") != HISTORY_SCHEMA:
            problems.append(
                "%s: schema=%r, want %r" % (where, row.get("schema"), HISTORY_SCHEMA)
            )
        digest = row.get("report_sha256")
        if (
            not isinstance(digest, str)
            or len(digest) != SHA256_HEX_LEN
            or any(ch not in "0123456789abcdef" for ch in digest)
        ):
            problems.append(
                "%s: report_sha256=%r is not 64 lowercase hex chars" % (where, digest)
            )
        # only lines written by older runners carry ``jobs``
        for field in ("jobs", "cells") if "jobs" in row else ("cells",):
            value = row.get(field)
            if not _is_nonneg_int(value) or value < 1:
                problems.append("%s: %s=%r must be a positive integer" % (where, field, value))
        for field in SCOREBOARD_FIELDS:
            if not _is_nonneg_number(row.get(field)):
                problems.append(
                    "%s: %s=%r must be a non-negative number" % (where, field, row.get(field))
                )
        rate = row.get("cache_hit_rate")
        if _is_nonneg_number(rate) and rate > 1:
            problems.append("%s: cache_hit_rate=%r is outside [0, 1]" % (where, rate))
        if not isinstance(row.get("fastpath_enabled"), bool):
            problems.append("%s: fastpath_enabled must be a boolean" % where)
        if not _is_nonneg_int(row.get("fastpath_hits")):
            problems.append(
                "%s: fastpath_hits=%r must be a non-negative integer"
                % (where, row.get("fastpath_hits"))
            )
        if not isinstance(row.get("partial"), bool):
            problems.append("%s: partial must be a boolean" % where)
    return problems


def main(argv):
    args = list(argv)
    history_mode = "--history" in args
    args = [arg for arg in args if arg != "--history"]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in args:
        problems = validate_history(path) if history_mode else validate(path)
        if problems:
            failures += 1
            for problem in problems:
                print("FAIL %s" % problem)
        else:
            print("OK   %s" % path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
