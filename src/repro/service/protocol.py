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
     "error": {"code": "<one of ERROR_CODES>", "message": "...", ...}}

``partial`` is always ``false`` on errors — a rejected or failed query
never executed half-way from the client's point of view; admission
rejects happen before any cell is enqueued, and cell failures surface
only after the whole batch settled.
"""

import json

from repro.errors import ConfigurationError, ReproError

#: response envelope schema (success and error documents)
SCHEMA = "repro-service/1"
#: ``GET /v1/metrics`` document schema
METRICS_SCHEMA = "repro-service-metrics/1"

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
