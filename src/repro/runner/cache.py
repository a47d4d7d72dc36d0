"""Content-addressed result cache for suite cells.

A cell's cache key is the sha256 of a canonical JSON document binding
together everything that can change its payload:

* the **model fingerprint** — a hash over every ``repro`` source file
  that participates in simulation (``analysis/`` is excluded: the
  linter cannot change results).  Editing any model file moves every
  key, so a stale hit is impossible after a code change;
* the **live cost tables** — ``repro.hw.costs.arm_costs()`` /
  ``x86_costs()`` serialized at key-derivation time, so a runtime
  mutation (a calibration experiment monkeypatching a primitive cost)
  also invalidates, even though no source file changed;
* the **cell id and parameters** — kind plus the frozen parameter
  pairs.

Entries are one JSON file per key under ``<dir>/<key[:2]>/<key>.json``,
written atomically (tempfile + rename) so concurrent runs (a server,
a bench, a direct query) can share a directory; stale ``*.tmp.<pid>``
scratch files left by a killed run are swept on open.

Integrity: every entry carries a ``payload_sha256`` over the canonical
payload JSON, verified on read.  A corrupt, truncated, or
hash-mismatched entry is **quarantined** — moved to
``<dir>/quarantine/<key>.json`` next to a ``<key>.reason`` file — and
treated as a miss, never an error: poisoning the cache can cost time,
not correctness, and the evidence survives for inspection.  An entry
with a foreign schema tag is simply a miss (a version skew, not
corruption; the next store overwrites it).  ``verify_entries`` re-hashes
the whole store on demand (``python -m repro bench --cache-verify``).
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import warnings

import repro
from repro.hw import costs as hw_costs
from repro.runner import resilience

#: bump when the entry layout changes; old entries become misses.
CACHE_SCHEMA = "repro-runner-cache/2"

#: subdirectory (inside the cache) holding quarantined entries
QUARANTINE_DIR = "quarantine"

_MODEL_FINGERPRINT = None


def model_fingerprint():
    """sha256 over every simulation-relevant source file (memoized)."""
    global _MODEL_FINGERPRINT
    if _MODEL_FINGERPRINT is None:
        root = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            if relative.startswith("analysis/"):
                continue
            digest.update(relative.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _MODEL_FINGERPRINT = digest.hexdigest()
    return _MODEL_FINGERPRINT


def _cost_document(costs):
    """One cost table as JSON-able data: each field by name, and each
    register-class table keyed by ``str(RegClass.X)``."""
    document = {}
    for field in dataclasses.fields(costs):
        value = getattr(costs, field.name)
        if isinstance(value, dict):
            value = {str(key): item for key, item in value.items()}
        document[field.name] = value
    return document


def live_costs():
    """The cost tables as the simulator would see them *right now*."""
    return {
        "arm": _cost_document(hw_costs.arm_costs()),
        "x86": _cost_document(hw_costs.x86_costs()),
    }


def _digest(document):
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class ResultCache:
    """On-disk content-addressed store of cell payloads."""

    def __init__(self, directory):
        self.directory = pathlib.Path(directory)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.write_errors = 0
        self._warned_write_error = False
        self.swept_tmp = self._sweep_stale_tmp()

    # -- hygiene -----------------------------------------------------------

    def _sweep_stale_tmp(self):
        """Remove ``*.tmp.<pid>`` scratch left by a killed previous run.

        A scratch file whose writer pid is still alive is left alone (a
        concurrent run mid-store); anything else — dead pid, mangled
        name — is debris from a run that never reached its atomic
        rename, and can only accumulate.
        """
        if not self.directory.is_dir():
            return 0
        swept = 0
        for scratch in self.directory.glob("*/*.json.tmp.*"):
            suffix = scratch.name.rsplit(".", 1)[-1]
            alive = suffix.isdigit() and _pid_alive(int(suffix))
            if not alive:
                try:
                    scratch.unlink()
                    swept += 1
                except OSError:
                    pass  # a concurrent sweeper got there first
        return swept

    def quarantine_path(self):
        return self.directory / QUARANTINE_DIR

    def _quarantine(self, path, key, reason):
        """Move a bad entry aside (with a reason file) instead of deleting.

        Quarantined evidence is what lets a human distinguish "the cache
        was poisoned" from "the cache was cold".  A quarantine that
        cannot happen (entry already gone, quarantine directory blocked,
        disk full) is not an error: the caller still treats the entry
        as a miss, exactly as :meth:`store` treats a failed write.
        Returns whether the entry was moved aside.
        """
        destination = self.quarantine_path()
        try:
            destination.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination / (key + ".json"))
        except OSError:
            return False
        self.quarantined += 1
        try:
            (destination / (key + ".reason")).write_text(
                "key: %s\nreason: %s\n" % (key, reason), encoding="utf-8"
            )
        except OSError:
            pass  # the entry is aside; only the note is missing
        return True

    # -- keys --------------------------------------------------------------

    def base_fingerprint(self):
        """The model+costs half of every key (compute once per run)."""
        return _digest(
            {
                "schema": CACHE_SCHEMA,
                "model": model_fingerprint(),
                "costs": live_costs(),
            }
        )

    def key_for(self, spec, base=None):
        """The full content address of one cell."""
        if base is None:
            base = self.base_fingerprint()
        return _digest(
            {
                "base": base,
                "kind": spec.kind,
                "params": [[name, value] for name, value in spec.params],
            }
        )

    def _path(self, key):
        return self.directory / key[:2] / (key + ".json")

    # -- entries -----------------------------------------------------------

    @staticmethod
    def _entry_problem(entry, key):
        """Why a parsed entry is untrustworthy, or None if it is sound."""
        if not isinstance(entry, dict):
            return "entry is not a JSON object"
        if entry.get("key") != key:
            return "embedded key %r does not match filename" % (entry.get("key"),)
        if "payload" not in entry:
            return "payload missing"
        if not isinstance(entry.get("stats"), dict):
            return "stats block missing"
        recorded = entry.get("payload_sha256")
        actual = resilience.payload_digest(entry["payload"])
        if recorded != actual:
            return "payload hash mismatch (recorded %r, actual %s)" % (
                recorded,
                actual,
            )
        return None

    def load(self, key):
        """The stored entry dict, or None (corruption quarantines + misses)."""
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None  # a cold miss, nothing to quarantine
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._quarantine(path, key, "unparseable JSON (torn write or poison)")
            self.misses += 1
            return None
        if isinstance(entry, dict) and entry.get("schema") != CACHE_SCHEMA:
            self.misses += 1  # foreign version: stale, not corrupt
            return None
        problem = self._entry_problem(entry, key)
        if problem is not None:
            self._quarantine(path, key, problem)
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(self, key, result):
        """Persist one executed cell (atomic: tempfile + rename)."""
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "cell": result.spec.id,
            "kind": result.spec.kind,
            "params": result.spec.params_dict(),
            "payload": result.payload,
            "payload_sha256": resilience.payload_digest(result.payload),
            "stats": {
                "wall_ms": result.wall_ms,
                "simulated_cycles": result.simulated_cycles,
                "engines": result.engines,
            },
        }
        path = self._path(key)
        scratch = path.with_name("%s.tmp.%d" % (path.name, os.getpid()))
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # No sort_keys: payload dict order is meaningful (microbenchmark
            # and workload row order) and must survive the round trip.
            scratch.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
            os.replace(scratch, path)
        except OSError as exc:
            # A full or read-only disk must cost cache coverage, not the
            # cell: record the miss-to-be and carry on.
            self.write_errors += 1
            try:
                scratch.unlink()
            except OSError:
                pass
            if not self._warned_write_error:
                self._warned_write_error = True
                warnings.warn(
                    "cache store failed (%s); continuing without caching "
                    "(further write errors counted silently)" % exc
                )
            return False
        return True

    def verify_entries(self):
        """Re-hash every entry; quarantine mismatches.  Returns a report.

        Each report row is ``{"key", "cell", "status", "reason"}`` with
        status ``ok``, ``quarantined``, or ``corrupt`` when the bad entry
        could not be moved aside (``python -m repro bench
        --cache-verify``).
        """
        report = []
        if not self.directory.is_dir():
            return report
        for path in sorted(self.directory.glob("??/*.json")):
            key = path.stem
            row = {"key": key, "cell": None, "status": "ok", "reason": None}
            try:
                entry = json.loads(path.read_bytes().decode("utf-8"))
            except (OSError, UnicodeDecodeError, ValueError):
                moved = self._quarantine(
                    path, key, "unparseable JSON (torn write or poison)"
                )
                row.update(
                    status="quarantined" if moved else "corrupt",
                    reason="unparseable JSON",
                )
                report.append(row)
                continue
            if isinstance(entry, dict):
                row["cell"] = entry.get("cell")
            if isinstance(entry, dict) and entry.get("schema") != CACHE_SCHEMA:
                row.update(status="ok", reason="foreign schema (ignored)")
                report.append(row)
                continue
            problem = self._entry_problem(entry, key)
            if problem is not None:
                moved = self._quarantine(path, key, problem)
                row.update(status="quarantined" if moved else "corrupt", reason=problem)
            report.append(row)
        return report
