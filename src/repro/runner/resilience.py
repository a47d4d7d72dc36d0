"""Failure records and payload integrity for the suite runner.

The runner's failure model (DESIGN.md, "Runner") is deliberately
simple: a cell runs once, in process.  If it raises, the failure is
recorded as a :class:`FailedCell` and the other cells still run; a
caller that needs every cell gets a structured :class:`CellFailure`
naming each failed cell, its error and its traceback.

Payload integrity is a sha256 over the canonical payload JSON
(:func:`payload_digest`): the cache verifies it on every read, and the
service reports it as ``result_sha256``, which
:func:`repro.service.protocol.check_response` recomputes.
"""

import dataclasses
import hashlib
import json

from repro.errors import ReproError


def payload_digest(payload):
    """sha256 over the canonical payload JSON (order-preserving).

    Dict insertion order is meaningful (table row order) and survives
    JSON round-trips and the cache — so the digest recorded at run time
    matches a later recomputation unless the payload was corrupted on
    disk.
    """
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def is_sha256(text):
    """Whether ``text`` is a digest as :func:`payload_digest` writes it
    (64 lowercase hex characters); the document checks use it."""
    return (
        isinstance(text, str)
        and len(text) == 64
        and all(ch in "0123456789abcdef" for ch in text)
    )


def is_count(value):
    """Whether ``value`` is a non-negative int (a bool is not one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class CellExecutionError(ReproError):
    """A cell failed; carries the traceback and partial accounting.

    The partial engine/cycle counts let the failure report say how far
    the cell got before dying — without them the metrics of a failed
    cell are silently dropped.
    """

    def __init__(
        self,
        cell_id,
        error_type,
        error,
        traceback_text="",
        engines=0,
        simulated_cycles=0,
    ):
        super().__init__("cell %s failed (%s: %s)" % (cell_id, error_type, error))
        self.cell_id = cell_id
        self.error_type = error_type
        self.error = error
        self.traceback_text = traceback_text
        self.engines = engines
        self.simulated_cycles = simulated_cycles


@dataclasses.dataclass
class FailedCell:
    """A cell that raised: its one run's error, traceback and partial
    accounting (nothing is retried, so there is exactly one)."""

    cell_id: str
    kind: str
    params: dict
    error: str
    traceback: str = ""
    engines: int = 0
    simulated_cycles: int = 0

    def as_dict(self):
        return {
            "id": self.cell_id,
            "kind": self.kind,
            "params": self.params,
            "error": self.error,
            "traceback": self.traceback,
            "engines": self.engines,
            "simulated_cycles": self.simulated_cycles,
        }

    @classmethod
    def from_execution_error(cls, spec, exc):
        return cls(
            cell_id=spec.id,
            kind=spec.kind,
            params=spec.params_dict(),
            error="%s: %s" % (exc.error_type, exc.error),
            traceback=exc.traceback_text,
            engines=exc.engines,
            simulated_cycles=exc.simulated_cycles,
        )


class CellFailure(ReproError):
    """The structured abort: every failed cell with its error."""

    def __init__(self, failed_cells):
        self.failed_cells = list(failed_cells)
        super().__init__(self.report_text())

    def report_text(self):
        lines = ["%d cell(s) failed:" % len(self.failed_cells)]
        for failed in self.failed_cells:
            lines.append(
                "  %s: %s (engines=%d, simulated_cycles=%d)"
                % (
                    failed.cell_id,
                    failed.error,
                    failed.engines,
                    failed.simulated_cycles,
                )
            )
            for tb_line in failed.traceback.rstrip().splitlines():
                lines.append("    " + tb_line)
        return "\n".join(lines)
