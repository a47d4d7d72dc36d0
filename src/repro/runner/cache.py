"""Content-addressed result cache for suite cells.

A cell's cache key is the sha256 of a canonical JSON document binding
together everything that can change its payload:

* the **model fingerprint** — a hash over every ``repro`` source file.
  Editing any of them moves every key, so a stale hit is impossible
  after a code change;
* the **live cost tables** — ``repro.hw.costs.arm_costs()`` /
  ``x86_costs()`` serialized at key-derivation time, so a runtime
  mutation (a calibration experiment monkeypatching a primitive cost)
  also invalidates, even though no source file changed.  The digest is
  re-derived only when the cost factories or the calling thread's
  override document are replaced, the only ways the tables change at
  run time;
* the **cell id and parameters** — kind plus the frozen parameter
  pairs.

Entries are one JSON file per key under ``<dir>/<key[:2]>/<key>.json``,
written atomically (tempfile + rename) so concurrent runs (a server,
a bench, a direct query) can share a directory.  A lookup opens only
``<key>.json``, so a ``*.tmp.<pid>`` scratch file a killed run left
behind is never read.

Integrity: every entry carries a ``payload_sha256`` over the canonical
payload JSON, verified on its first read in a process, then kept in
memory (a key's bytes never change): a later load of that key opens no
file.  The memo holds at most :data:`MEMO_CAP` entries per cache and is
cleared when it reaches the cap; only verified loads enter it, so the
what-if entries a query stores and never reads again stay on disk.
Callers share a kept entry and must not mutate it.  An entry that
does not parse, fails that check, or carries a foreign schema tag is a
**miss**, never an error: the file is left where it is, the cell is
re-simulated, and its store overwrites the bad entry with the same
atomic rename.  A bad entry can cost time, not correctness.
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

#: verified entries a :class:`ResultCache` keeps in memory; the default
#: report has 32 distinct cells, so a hot server's whole set fits
MEMO_CAP = 64

_MODEL_FINGERPRINT = None


def model_fingerprint():
    """sha256 over every ``repro`` source file (memoized)."""
    global _MODEL_FINGERPRINT
    if _MODEL_FINGERPRINT is None:
        root = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root).as_posix()
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


class ResultCache:
    """On-disk content-addressed store of cell payloads."""

    def __init__(self, directory):
        self.directory = pathlib.Path(directory)
        self._root = os.fspath(self.directory)
        #: ``(arm_costs, x86_costs, override document, digest)`` of the
        #: last base fingerprint: the live tables change at run time only
        #: when one of the three objects is replaced (a monkeypatched cost
        #: factory, a new ``hw_costs.overriding`` block).  The document is
        #: the calling thread's, so a thread inside another's what-if
        #: block still derives default keys.
        self._base_memo = None
        #: key -> verified entry (see the module docstring)
        self._memo = {}
        self.hits = 0
        self.misses = 0
        self.write_errors = 0
        self._warned_write_error = False

    # -- keys --------------------------------------------------------------

    def base_fingerprint(self):
        """The model+costs half of every key (derived once per cost state)."""
        state = (hw_costs.arm_costs, hw_costs.x86_costs, hw_costs.active_overrides())
        memo = self._base_memo
        if memo is None or any(now is not then for now, then in zip(state, memo)):
            digest = _digest(
                {
                    "schema": CACHE_SCHEMA,
                    "model": model_fingerprint(),
                    "costs": live_costs(),
                }
            )
            memo = self._base_memo = state + (digest,)
        return memo[3]

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
        return os.path.join(self._root, key[:2], key + ".json")

    # -- entries -----------------------------------------------------------

    @staticmethod
    def _entry_sound(entry, key):
        """Whether a parsed entry is this key's, current and intact."""
        return (
            isinstance(entry, dict)
            and entry.get("schema") == CACHE_SCHEMA
            and entry.get("key") == key
            and "payload" in entry
            and isinstance(entry.get("stats"), dict)
            and entry.get("payload_sha256")
            == resilience.payload_digest(entry["payload"])
        )

    def load(self, key):
        """The stored entry dict, or None: a cold, unparseable,
        foreign-schema or failing entry is a miss, left in place for the
        cell's store to overwrite.  A verified entry is kept, so the
        key's next load is a hit that opens no file."""
        entry = self._memo.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        try:
            with open(self._path(key), "rb") as handle:
                entry = json.loads(handle.read().decode("utf-8"))
        except (OSError, UnicodeDecodeError, ValueError):
            entry = None
        if not self._entry_sound(entry, key):
            self.misses += 1
            return None
        if len(self._memo) >= MEMO_CAP:
            self._memo.clear()
        self._memo[key] = entry
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
            "payload_sha256": result.payload_sha256
            or resilience.payload_digest(result.payload),
            "stats": {
                "wall_ms": result.wall_ms,
                "simulated_cycles": result.simulated_cycles,
                "engines": result.engines,
            },
        }
        path = self._path(key)
        scratch = "%s.tmp.%d" % (path, os.getpid())
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            # No sort_keys: payload dict order is meaningful (microbenchmark
            # and workload row order) and must survive the round trip.
            # Compact, so json's C encoder writes it (indent forces the
            # pure-Python one).
            with open(scratch, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
            os.replace(scratch, path)
        except OSError as exc:
            # A full or read-only disk must cost cache coverage, not the
            # cell: record the miss-to-be and carry on.
            self.write_errors += 1
            try:
                os.unlink(scratch)
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
