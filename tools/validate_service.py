#!/usr/bin/env python3
"""Validate service-layer JSON documents against their schemas.

Usage: python tools/validate_service.py FILE [FILE ...]

Accepts any mix of service documents and dispatches on the ``schema``
field:

* ``repro-service/1``          — query responses (success or error);
* ``repro-service-metrics/1``  — ``GET /v1/metrics`` snapshots.

For success responses the validator *recomputes* ``result_sha256`` over
the ``result`` member (compact separators, insertion order — the same
canonical encoding ``repro.runner.resilience.payload_digest`` uses) and
fails on mismatch, so a response that was rewritten, key-sorted, or
truncated after the server signed it cannot pass.  Stdlib only; exits
non-zero listing every violation.
"""

import hashlib
import json
import sys

RESPONSE_SCHEMA = "repro-service/1"
METRICS_SCHEMA = "repro-service-metrics/1"

ERROR_CODES = (
    "bad-request",
    "budget-exceeded",
    "not-found",
    "cell-failed",
    "internal",
    "overloaded",
    "shutting-down",
    "deadline-exceeded",
)

STAT_FIELDS = ("cells", "coalesced", "cached", "simulated")

METRIC_KINDS = ("counter", "gauge", "histogram")


def payload_digest(payload):
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _is_sha256(text):
    return (
        isinstance(text, str)
        and len(text) == 64
        and all(ch in "0123456789abcdef" for ch in text)
    )


def _check(condition, errors, message):
    if not condition:
        errors.append(message)


def validate_response(document):
    errors = []
    _check(document.get("schema") == RESPONSE_SCHEMA, errors, "bad schema tag")
    ok = document.get("ok")
    _check(isinstance(ok, bool), errors, "'ok' must be a boolean")
    _check(document.get("partial") is False, errors, "'partial' must be false")
    if ok:
        for field in ("target", "params", "costs", "query_key", "result",
                      "result_sha256", "stats"):
            _check(field in document, errors, "success doc missing %r" % field)
        if errors:
            return errors
        _check(
            isinstance(document["target"], str) and document["target"],
            errors,
            "'target' must be a non-empty string",
        )
        _check(isinstance(document["params"], dict), errors, "'params' must be an object")
        _check(isinstance(document["costs"], dict), errors, "'costs' must be an object")
        _check(_is_sha256(document["query_key"]), errors, "'query_key' is not a sha256")
        _check(
            _is_sha256(document["result_sha256"]),
            errors,
            "'result_sha256' is not a sha256",
        )
        recomputed = payload_digest(document["result"])
        _check(
            recomputed == document["result_sha256"],
            errors,
            "result_sha256 mismatch: doc says %s, result hashes to %s"
            % (document["result_sha256"][:16], recomputed[:16]),
        )
        stats = document["stats"]
        _check(isinstance(stats, dict), errors, "'stats' must be an object")
        if isinstance(stats, dict):
            for field in STAT_FIELDS:
                value = stats.get(field)
                _check(
                    isinstance(value, int) and not isinstance(value, bool)
                    and value >= 0,
                    errors,
                    "stats.%s must be a non-negative integer" % field,
                )
            if not errors:
                _check(
                    stats["coalesced"] <= stats["cells"],
                    errors,
                    "stats.coalesced exceeds stats.cells",
                )
                _check(
                    stats["coalesced"] + stats["cached"] + stats["simulated"]
                    == stats["cells"],
                    errors,
                    "stats partition does not cover stats.cells",
                )
    else:
        error = document.get("error")
        _check(isinstance(error, dict), errors, "error doc missing 'error' object")
        if isinstance(error, dict):
            _check(
                error.get("code") in ERROR_CODES,
                errors,
                "unknown error code %r" % error.get("code"),
            )
            _check(
                isinstance(error.get("message"), str) and error["message"],
                errors,
                "'error.message' must be a non-empty string",
            )
    return errors


def validate_metrics(document):
    errors = []
    _check(document.get("schema") == METRICS_SCHEMA, errors, "bad schema tag")
    _check(document.get("ok") is True, errors, "'ok' must be true")
    metrics = document.get("metrics")
    _check(isinstance(metrics, dict), errors, "'metrics' must be an object")
    if isinstance(metrics, dict):
        for name, instrument in metrics.items():
            _check(
                isinstance(instrument, dict)
                and instrument.get("kind") in METRIC_KINDS,
                errors,
                "metric %r has no valid kind" % name,
            )
    return errors


VALIDATORS = {
    RESPONSE_SCHEMA: validate_response,
    METRICS_SCHEMA: validate_metrics,
}


def validate_document(document):
    """Dispatch on the schema tag; returns a list of violation strings."""
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    schema = document.get("schema")
    validator = VALIDATORS.get(schema)
    if validator is None:
        return ["unknown schema tag %r" % (schema,)]
    return validator(document)


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            print("%s: unreadable: %s" % (path, exc))
            failed = True
            continue
        errors = validate_document(document)
        if errors:
            failed = True
            print("%s: INVALID" % path)
            for error in errors:
                print("  - %s" % error)
        else:
            print("%s: ok (%s)" % (path, document.get("schema")))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
