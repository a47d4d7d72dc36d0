"""Service wire format: schemas, error documents, and HTTP framing.

Everything on the wire is JSON over a minimal hand-rolled HTTP/1.1
subset (stdlib only — ``asyncio`` streams on the server, ``http.client``
or ``asyncio`` streams on the clients).  Responses always carry an
exact ``Content-Length``, so a client can read to the header's byte
count and never needs chunked decoding.  Persistent connections are
opt-in: a response carries ``Connection: keep-alive`` only when its
request sent that header and the server is not draining, and
``Connection: close`` otherwise.  The async client sends it; the sync
client, the CLI and plain ``http.client`` callers do not, and get one
connection per request.  A malformed request always closes.

The error document is *stable by contract* (the overload and chaos
tests assert its exact shape): every non-2xx response is

    {"schema": "repro-service/1", "ok": false, "partial": false,
     "error": {"code": "<one of ERROR_STATUS>", "message": "...", ...}}

``partial`` is always ``false`` on errors — a rejected or failed query
never executed half-way from the client's point of view; admission
rejects happen before any cell is enqueued, and cell failures surface
only after the whole batch settled.

:func:`check_response` and :func:`check_metrics` check a document
against this contract (``python -m repro check`` runs them); nothing on
the serving path calls them.
"""

import json

from repro.errors import ConfigurationError, ReproError
from repro.obs.metrics import KINDS as METRIC_KINDS
from repro.runner.resilience import is_count, is_sha256, payload_digest

#: response envelope schema (success and error documents)
SCHEMA = "repro-service/1"
#: ``GET /v1/metrics`` document schema
METRICS_SCHEMA = "repro-service-metrics/1"

#: a success document's ``stats``: unique cells, and how each was
#: answered (joined in flight, read from the cache, or simulated)
STAT_FIELDS = ("cells", "coalesced", "cached", "simulated")

#: the default ``python -m repro serve`` port (``REPRO_SERVE_PORT``)
DEFAULT_PORT = 8123
ENV_PORT = "REPRO_SERVE_PORT"
#: the highest TCP port number
MAX_PORT = 65535


def port_from_env(environ, minimum):
    """``REPRO_SERVE_PORT`` as a port in ``minimum..MAX_PORT``, or
    ``DEFAULT_PORT`` when unset; ``serve`` allows 0 (ephemeral), a
    client needs a real port."""
    text = environ.get(ENV_PORT)
    if not text:
        return DEFAULT_PORT
    try:
        port = int(text)
    except ValueError:
        raise ConfigurationError("%s=%r is not an integer" % (ENV_PORT, text))
    if not minimum <= port <= MAX_PORT:
        raise ConfigurationError(
            "%s must be in %d..%d, got %d" % (ENV_PORT, minimum, MAX_PORT, port)
        )
    return port


# --- error vocabulary ----------------------------------------------------

BAD_REQUEST = "bad-request"
BUDGET_EXCEEDED = "budget-exceeded"
NOT_FOUND = "not-found"
CELL_FAILED = "cell-failed"
INTERNAL = "internal"
OVERLOADED = "overloaded"
SHUTTING_DOWN = "shutting-down"
DEADLINE_EXCEEDED = "deadline-exceeded"

#: every error code the service may emit, with its HTTP status
ERROR_STATUS = {
    BAD_REQUEST: 400,
    BUDGET_EXCEEDED: 400,
    NOT_FOUND: 404,
    CELL_FAILED: 500,
    INTERNAL: 500,
    OVERLOADED: 503,
    SHUTTING_DOWN: 503,
    DEADLINE_EXCEEDED: 504,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def canonical_json(value):
    """Compact sorted-keys JSON — the query-key serialization."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def error_document(code, message, **details):
    """The stable error envelope (see module docstring)."""
    error = {"code": code, "message": message}
    error.update(details)
    return {"schema": SCHEMA, "ok": False, "partial": False, "error": error}


def error_status(code):
    return ERROR_STATUS.get(code, 500)


# --- document checks -----------------------------------------------------


def check_response(document):
    """Problems with a query response (an empty list when it is valid).

    A success document's ``result_sha256`` is recomputed over its
    ``result`` (:func:`~repro.runner.resilience.payload_digest`), so a
    response rewritten, key-sorted or truncated after the server signed
    it fails; its ``stats`` must partition ``cells``.  An error
    document must carry a code of ``ERROR_STATUS`` and a message.
    """
    problems = []
    if document.get("schema") != SCHEMA:
        problems.append("bad schema tag")
    if not isinstance(document.get("ok"), bool):
        problems.append("'ok' must be a boolean")
    if document.get("partial") is not False:
        problems.append("'partial' must be false")
    if not document.get("ok"):
        error = document.get("error")
        if not isinstance(error, dict):
            return problems + ["error doc missing 'error' object"]
        if error.get("code") not in ERROR_STATUS:
            problems.append("unknown error code %r" % error.get("code"))
        if not isinstance(error.get("message"), str) or not error["message"]:
            problems.append("'error.message' must be a non-empty string")
        return problems
    for field in ("target", "params", "costs", "query_key", "result", "result_sha256", "stats"):
        if field not in document:
            problems.append("success doc missing %r" % field)
    if problems:
        return problems
    if not isinstance(document["target"], str) or not document["target"]:
        problems.append("'target' must be a non-empty string")
    for field in ("params", "costs"):
        if not isinstance(document[field], dict):
            problems.append("%r must be an object" % field)
    for field in ("query_key", "result_sha256"):
        if not is_sha256(document[field]):
            problems.append("%r is not a sha256" % field)
    recomputed = payload_digest(document["result"])
    if recomputed != document["result_sha256"]:
        problems.append(
            "result_sha256 mismatch: doc says %s, result hashes to %s"
            % (str(document["result_sha256"])[:16], recomputed[:16])
        )
    stats = document["stats"]
    if not isinstance(stats, dict):
        return problems + ["'stats' must be an object"]
    problems += [
        "stats.%s must be a non-negative integer" % field
        for field in STAT_FIELDS
        if not is_count(stats.get(field))
    ]
    if not problems:
        if stats["coalesced"] > stats["cells"]:
            problems.append("stats.coalesced exceeds stats.cells")
        if stats["coalesced"] + stats["cached"] + stats["simulated"] != stats["cells"]:
            problems.append("stats partition does not cover stats.cells")
    return problems


def check_metrics(document):
    """Problems with a ``GET /v1/metrics`` snapshot (empty when valid):
    every instrument must report one of the registry's kinds."""
    problems = []
    if document.get("schema") != METRICS_SCHEMA:
        problems.append("bad schema tag")
    if document.get("ok") is not True:
        problems.append("'ok' must be true")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["'metrics' must be an object"]
    return problems + [
        "metric %r has no valid kind" % name
        for name, instrument in metrics.items()
        if not isinstance(instrument, dict) or instrument.get("kind") not in METRIC_KINDS
    ]


# --- HTTP framing --------------------------------------------------------

#: request-line / header-line byte budget (headers past this are hostile)
MAX_LINE = 8192
MAX_HEADERS = 64
#: request body budget — a full cost-override document is a few KB
MAX_BODY = 8 * 1024 * 1024


class ProtocolError(ReproError):
    """A malformed or over-budget HTTP request (always a 400)."""


def keeps_alive(headers):
    """Whether a (lower-cased) header dict asks to keep the connection."""
    return headers.get("connection", "").lower() == "keep-alive"


async def read_request(reader, line):
    """Parse one HTTP request from an asyncio stream reader.

    ``line`` is the request line, already read by the caller (the
    server's connection loop waits for it between requests, so the
    idle time is not spent in here).  Returns ``(method, path,
    headers, body)`` with lower-cased header names; raises
    :class:`ProtocolError` on anything malformed, truncated, or over
    budget.
    """
    if len(line) > MAX_LINE:
        raise ProtocolError("request line exceeds %d bytes" % MAX_LINE)
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError("malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if len(line) > MAX_LINE:
            raise ProtocolError("header line exceeds %d bytes" % MAX_LINE)
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError("more than %d headers" % MAX_HEADERS)
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError("malformed header line %r" % line)
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError("content-length %r is not an integer" % length_text)
    if length < 0 or length > MAX_BODY:
        raise ProtocolError("content-length %d out of range" % length)
    if not length:
        return method, path, headers, b""
    try:
        body = await reader.readexactly(length)
    except EOFError:
        raise ProtocolError("request body truncated")
    return method, path, headers, body


def format_response(status, document, headers=None, keep_alive=False):
    """One complete HTTP response (headers + JSON body) as bytes.

    The body is **not** key-sorted: a success document's ``result``
    member must keep its assembly insertion order, because
    ``result_sha256`` is the digest of exactly those bytes re-encoded
    canonically (``repro.runner.resilience.payload_digest``).

    ``headers`` adds extra response headers (e.g. ``Retry-After`` on the
    shed/drain 503s) — names and values must be latin-1 safe.
    ``keep_alive`` leaves the connection open for the next request.
    """
    body = (json.dumps(document) + "\n").encode("utf-8")
    extra = ""
    for name, value in (headers or {}).items():
        extra += "%s: %s\r\n" % (name, value)
    head = (
        "HTTP/1.1 %d %s\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: %d\r\n"
        "%s"
        "Connection: %s\r\n"
        "\r\n"
        % (
            status,
            _REASONS.get(status, "OK"),
            len(body),
            extra,
            "keep-alive" if keep_alive else "close",
        )
    )
    return head.encode("latin-1") + body


def format_request(method, path, host, payload=None):
    """One complete HTTP request as bytes (the async client's framing:
    it asks to keep the connection for its next request)."""
    body = b""
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
    head = (
        "%s %s HTTP/1.1\r\n"
        "Host: %s\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: %d\r\n"
        "Connection: keep-alive\r\n"
        "\r\n" % (method, path, host, len(body))
    )
    return head.encode("latin-1") + body


async def read_response(reader, line):
    """Parse one HTTP response from an asyncio stream, its status line
    already read; returns ``(status, document, keep_alive)``, where
    ``keep_alive`` says the server left the connection open for another
    request."""
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError("malformed status line %r" % line)
    try:
        status = int(parts[1])
    except ValueError:
        raise ProtocolError("malformed status code %r" % parts[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length")
    if length_text is not None:
        body = await reader.readexactly(int(length_text))
    else:
        body = await reader.read()
    document = json.loads(body.decode("utf-8")) if body.strip() else {}
    return status, document, length_text is not None and keeps_alive(headers)
