"""The asyncio query endpoint: admission and routing.

``python -m repro serve`` binds a JSON-over-HTTP server
(``asyncio.start_server``; no frameworks, no dependencies) with four
routes:

* ``GET  /healthz``     — liveness plus the admission gauge;
* ``GET  /v1/targets``  — the queryable vocabulary;
* ``GET  /v1/metrics``  — the shared obs registry as a document;
* ``POST /v1/query``    — the what-if query path.

The admission model is intentionally simple and deterministic: at most
``admit_max`` queries may be *in residence* (admitted and not yet
answered) at once, and a request arriving at capacity is shed
immediately with the stable ``overloaded`` error — never queued, never
partially executed, so shedding order is exactly arrival order at
capacity.  A query's size is bounded where it is validated
(:func:`repro.service.queries.canonicalize`): every target's parameters
have ceilings, so no valid query plans more than 40 cells.

An admitted query's cells go to the broker, which answers cache hits
right there, on this event-loop thread, and hands only the misses to
its worker thread.  The query then waits on one asyncio future that
settles when its last verdict is in, so the loop is woken once per
query, and not at all when every cell was a hit.

Connections: each one runs :meth:`ServiceServer._connection`, a loop
that waits for the next request line and hands it to
:meth:`ServiceServer._handle`, which answers exactly that one request.
The connection stays open only when the request asked for
``Connection: keep-alive`` and the server is not draining.  Draining and
``stop`` close the idle ones (waiting for their next request); a
request that raced such a close is dropped unanswered, before any
handler sees it, and the async client resends it once on a fresh
connection.  ``stop`` also aborts the connections still reading a
request (a client that sent half a body): their requests get no
response.
"""

import asyncio
import dataclasses
import json
import os
import signal
import sys
import threading

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.runner.cache import ResultCache
from repro.service import broker as broker_mod
from repro.service import protocol, queries

ENV_HOST = "REPRO_SERVE_HOST"
ENV_ADMIT_MAX = "REPRO_ADMIT_MAX"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_ADMIT_MAX = 64
#: how long a signaled ``serve`` waits for admitted queries (seconds)
DRAIN_TIMEOUT_S = 30.0

#: the Retry-After we advise on shed/drain 503s (seconds)
RETRY_AFTER_S = 1

#: server-owned instruments (pre-registered; see broker.BROKER_COUNTERS)
SERVER_COUNTERS = (
    "service.queries",
    "service.queries.ok",
    "service.queries.errors",
    "service.admit.rejects",
    "service.coalesce.queries",
)


def _env_int(environ, name, default, minimum):
    text = environ.get(name)
    if text is None or text == "":
        return default
    try:
        value = int(text)
    except ValueError:
        raise ConfigurationError("%s=%r is not an integer" % (name, text))
    if value < minimum:
        raise ConfigurationError(
            "%s must be >= %d, got %d" % (name, minimum, value)
        )
    return value


@dataclasses.dataclass
class ServiceConfig:
    """Everything ``serve`` needs, from flags or ``REPRO_*`` knobs."""

    host: str = DEFAULT_HOST
    port: int = protocol.DEFAULT_PORT
    admit_max: int = DEFAULT_ADMIT_MAX
    cache_dir: str = None

    @classmethod
    def from_env(cls, environ=None, **overrides):
        """The ``REPRO_*`` settings, then every override that is not
        None (an unknown name raises ``TypeError``)."""
        environ = os.environ if environ is None else environ
        config = cls(
            host=environ.get(ENV_HOST) or DEFAULT_HOST,
            port=protocol.port_from_env(environ, 0),
            admit_max=_env_int(environ, ENV_ADMIT_MAX, DEFAULT_ADMIT_MAX, 1),
            cache_dir=environ.get("REPRO_CACHE_DIR") or None,
        )
        return dataclasses.replace(
            config,
            **{name: value for name, value in overrides.items() if value is not None}
        )


class ServiceServer:
    """One service instance: config + broker + the asyncio endpoint."""

    def __init__(self, config=None, broker=None, metrics=None):
        self.config = config if config is not None else ServiceConfig.from_env()
        if broker is not None:
            self.broker = broker
            self.metrics = metrics if metrics is not None else broker.metrics
        else:
            self.metrics = metrics if metrics is not None else MetricsRegistry()
            cache = (
                ResultCache(self.config.cache_dir)
                if self.config.cache_dir
                else None
            )
            self.broker = broker_mod.SimulationBroker(
                cache=cache, metrics=self.metrics
            )
        (
            self._queries,
            self._queries_ok,
            self._queries_errors,
            self._admit_rejects,
            self._coalesce_queries,
        ) = [self.metrics.counter(name) for name in SERVER_COUNTERS]
        self._admit_active = self.metrics.gauge("service.admit.active")
        self._active = 0  # queries admitted and not yet answered
        self._draining = False  # set once; new queries 503 shutting-down
        self._server = None
        self._loop = None
        #: {writer: task} of the connections waiting for their next
        #: request, and of those reading one (its headers and body)
        self._idle = {}
        self._reading = {}
        self.port = None

    @property
    def active(self):
        return self._active

    @property
    def draining(self):
        return self._draining

    # --- lifecycle --------------------------------------------------------

    async def start(self):
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self):
        """Close the listener and every connection.

        From Python 3.12, ``Server.wait_closed`` waits for every open
        connection, so any client could hold the stop open
        indefinitely.  Stopping ends any drain, so idle kept-alive
        connections are closed and those still reading a request are
        aborted (the request was never admitted, and gets no response).
        A busy connection closes after its response (draining answers
        ``Connection: close``).
        """
        if self._server is not None:
            self._draining = True
            closing = self._close_idle()
            for writer, task in self._reading.items():
                writer.transport.abort()
                closing.append(task)
            if closing:
                await asyncio.wait(closing)
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def begin_drain(self):
        """Flip admission off: every new query 503s ``shutting-down``.

        Already-admitted queries (and the broker batch carrying them)
        keep running to completion — draining sheds *future* work only.
        Every response from now on closes its connection, and the idle
        kept-alive connections are closed (on the server loop, so this
        is safe to call from any thread).
        """
        self._draining = True
        if self._server is not None:
            self._loop.call_soon_threadsafe(self._close_idle)

    def _close_idle(self):
        """Close every idle connection; returns their tasks."""
        for writer in self._idle:
            writer.close()
        return list(self._idle.values())

    async def drain(self, timeout=None):
        """Wait for residence to empty; True if fully drained in time.

        The drain condition is "no admitted query is still waiting and
        the broker's in-flight registry is empty" — i.e. zero queries
        can be dropped by stopping now.
        """
        self.begin_drain()
        if timeout is None:
            timeout = DRAIN_TIMEOUT_S
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._active > 0 or self.broker.inflight_count() > 0:
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    # --- connection handling ----------------------------------------------

    async def _connection(self, reader, writer):
        """Serve one connection, a request at a time, until it closes.

        Between requests the connection is *idle*: it waits here for the
        next request line, outside :meth:`_handle`, so a handler's time
        is one request's.  It closes when the client hangs up (or sent a
        bare TCP ping), after a response that did not keep it alive, or
        when draining or ``stop`` closes it while idle.  A request line
        that arrives on a connection already closed that way is dropped
        unanswered: no handler saw it, so the client may resend it.
        """
        try:
            keep_alive = True
            while keep_alive:
                self._idle[writer] = asyncio.current_task()
                try:
                    line = await reader.readline()
                except ValueError:  # a line past the stream's buffer limit
                    line = b""
                finally:
                    del self._idle[writer]
                if not line.strip() or writer.is_closing():
                    break
                keep_alive = await self._handle(reader, writer, line)
        except (ConnectionError, OSError):
            pass  # the client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle(self, reader, writer, line):
        """Answer the one request whose request line is ``line``;
        returns whether the connection stays open for another."""
        keep_alive = False
        try:
            request = await self._read_request(reader, writer, line)
        except protocol.ProtocolError as exc:
            if writer.is_closing():
                return False  # ``stop`` aborted it mid-request
            status = protocol.error_status(protocol.BAD_REQUEST)
            document = protocol.error_document(protocol.BAD_REQUEST, str(exc))
        else:
            try:
                status, document = await self._route(*request)
            except Exception as exc:  # never leak a traceback as a hang
                status = protocol.error_status(protocol.INTERNAL)
                document = protocol.error_document(
                    protocol.INTERNAL,
                    "%s: %s" % (type(exc).__name__, exc),
                )
            _method, _path, headers, _body = request
            keep_alive = protocol.keeps_alive(headers) and not self._draining
        extra = None
        if isinstance(document, dict):
            retry_after = (document.get("error") or {}).get("retry_after")
            if retry_after is not None:
                extra = {"Retry-After": str(retry_after)}
        writer.write(protocol.format_response(status, document, extra, keep_alive))
        await writer.drain()
        return keep_alive

    async def _read_request(self, reader, writer, line):
        """:func:`protocol.read_request`, with the connection marked as
        reading a request meanwhile (``stop`` aborts such connections)."""
        self._reading[writer] = asyncio.current_task()
        try:
            return await protocol.read_request(reader, line)
        finally:
            del self._reading[writer]

    async def _route(self, method, path, _headers, body):
        if path == "/healthz" and method == "GET":
            return 200, {
                "ok": True,
                "status": "draining" if self._draining else "ok",
                "active": self._active,
                "admit_max": self.config.admit_max,
            }
        if path == "/v1/metrics" and method == "GET":
            return 200, {
                "schema": protocol.METRICS_SCHEMA,
                "ok": True,
                "metrics": self.metrics.snapshot(),
            }
        if path == "/v1/targets" and method == "GET":
            return 200, {
                "ok": True,
                "targets": queries.describe_targets(),
            }
        if path == "/v1/query":
            if method != "POST":
                return 400, protocol.error_document(
                    protocol.BAD_REQUEST, "/v1/query requires POST"
                )
            return await self._query(body)
        return 404, protocol.error_document(
            protocol.NOT_FOUND, "no route %s %s" % (method, path)
        )

    # --- the query path ---------------------------------------------------

    async def _query(self, body):
        self._queries.inc()
        if self._draining:
            # drain phase: shed before admission, advise a retry — the
            # peer instance (or the restarted one) will take it
            self._admit_rejects.inc()
            return 503, protocol.error_document(
                protocol.SHUTTING_DOWN,
                "server is draining for shutdown",
                retry_after=RETRY_AFTER_S,
            )
        if self._active >= self.config.admit_max:
            # shed-on-overload: reject *before* canonicalization so a
            # shed request costs no planning and enqueues nothing
            self._admit_rejects.inc()
            return 503, protocol.error_document(
                protocol.OVERLOADED,
                "admission queue at capacity (%d active)" % self._active,
                active=self._active,
                admit_max=self.config.admit_max,
                retry_after=RETRY_AFTER_S,
            )
        self._active += 1
        self._admit_active.set(self._active)
        try:
            status, document = await self._admitted(body)
        finally:
            self._active -= 1
            self._admit_active.set(self._active)
        if document.get("ok"):
            self._queries_ok.inc()
        else:
            self._queries_errors.inc()
        return status, document

    async def _admitted(self, body):
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            return 400, protocol.error_document(
                protocol.BAD_REQUEST, "request body is not valid JSON"
            )
        try:
            query = queries.canonicalize(payload)
        except ConfigurationError as exc:
            return 400, protocol.error_document(protocol.BAD_REQUEST, str(exc))
        base_specs, exec_specs = queries.plan(query)
        try:
            futures, stats = self.broker.submit(exec_specs)
        except broker_mod.BrokerClosed as exc:
            return 503, protocol.error_document(protocol.SHUTTING_DOWN, str(exc))
        if stats["coalesced"]:
            self._coalesce_queries.inc()

        waiting = [future for future in futures.values() if not future.done()]
        if waiting:
            await _all_settled(waiting, asyncio.get_running_loop())

        results = {}
        failed = []
        for cell_id, future in futures.items():
            kind, value = future.result()
            if kind == "ok":
                results[cell_id] = value
            else:
                failed.append(value)
        if failed:
            return 500, protocol.error_document(
                protocol.CELL_FAILED,
                "%d cell(s) failed" % len(failed),
                failed_cells=failed,
                query_key=query.key,
            )
        result = queries.assemble(
            query, queries.rekey(results, base_specs, exec_specs)
        )
        sources = [results[cell_id].source for cell_id in stats["owned"]]
        document = queries.success_document(
            query,
            result,
            queries.query_stats(stats["cells"], stats["coalesced"], sources),
        )
        return 200, document


def _all_settled(futures, loop):
    """An asyncio future on ``loop`` that settles once every one of
    ``futures`` (the broker's ``concurrent.futures``) is done.

    The loop is woken once per query, by whichever thread resolves the
    last future (the broker's worker, or the loop itself).  A waiter
    that was cancelled meanwhile, or a loop already closed, is skipped:
    nothing raises on the resolving thread.
    """
    settled = loop.create_future()
    lock = threading.Lock()
    remaining = len(futures)

    def on_done(_future):
        nonlocal remaining
        with lock:
            remaining -= 1
            if remaining:
                return
        try:
            loop.call_soon_threadsafe(_settle, settled)
        except RuntimeError:
            pass  # the loop is closed: nobody is waiting any more

    for future in futures:
        future.add_done_callback(on_done)
    return settled


def _settle(settled):
    if not settled.done():
        settled.set_result(None)


# --- running it ----------------------------------------------------------


def run_forever(server, announce=None):
    """Foreground mode (``python -m repro serve``): serve until signaled.

    SIGTERM and SIGINT both trigger the graceful drain state machine:

    1. **draining** — admission flips off (new queries shed with 503
       ``shutting-down`` + ``Retry-After``) while admitted queries and
       the broker's in-flight batch run to completion;
    2. **drained** — residence hit zero (or ``DRAIN_TIMEOUT_S`` expired —
       logged, never hung);
    3. **stopped** — listener closed, broker closed, and a final metrics
       snapshot flushed to stderr.

    Always returns 0 on a signaled shutdown: a drain that ran out of
    time is an operational warning, not a failed process.
    """

    async def body():
        port = await server.start()
        if announce is not None:
            announce(server.config.host, port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                handled.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or exotic platform: Ctrl-C still works
        try:
            await stop.wait()
            print("draining (max %.0fs)" % DRAIN_TIMEOUT_S, file=sys.stderr)
            drained = await server.drain()
            if not drained:
                print(
                    "drain timeout after %.0fs: %d query(ies) still active"
                    % (DRAIN_TIMEOUT_S, server.active),
                    file=sys.stderr,
                )
        finally:
            for signum in handled:
                loop.remove_signal_handler(signum)
            await server.stop()

    try:
        asyncio.run(body())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.broker.close()
        # final metrics snapshot: the run's counters survive the process
        print(
            json.dumps(
                {"event": "final-metrics", "metrics": server.metrics.snapshot()}
            ),
            file=sys.stderr,
        )
        sys.stderr.flush()
    return 0


class ServerHandle:
    """A running in-thread server (tests, notebooks)."""

    def __init__(self, server, loop, stop_event, thread):
        self.server = server
        self._loop = loop
        self._stop = stop_event
        self._thread = thread

    @property
    def port(self):
        return self.server.port

    @property
    def broker(self):
        return self.server.broker

    @property
    def metrics(self):
        return self.server.metrics

    def begin_drain(self):
        """Flip the server into draining (thread-safe: one flag, and the
        idle connections are closed on the server loop)."""
        self.server.begin_drain()

    def _assert_off_loop(self, what):
        """Refuse to block *on* the loop this handle manages.

        ``drain``/``close`` park the calling thread on a future (or a
        thread join) that the server loop must fulfil.  Called from that
        same loop, the loop stops turning while it waits on itself, and
        the call deadlocks until its timeout.  This guard turns that
        deadlock into an immediate, actionable error.
        """
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            return  # no loop on this thread: the intended call shape
        if running is self._loop:
            raise RuntimeError(
                "ServerHandle.%s called from the server's own event loop; "
                "it blocks on loop-driven work and would deadlock — call "
                "it from another thread (or await server.%s directly)"
                % (what, what)
            )

    def drain(self, timeout=None):
        """Run the drain coroutine on the server loop; True if drained.

        Blocking by design: the caller-side of a cross-thread handoff.
        """
        self._assert_off_loop("drain")
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout), self._loop
        )
        wait_s = timeout if timeout is not None else DRAIN_TIMEOUT_S
        return future.result(wait_s + 30.0)

    def close(self):
        self._assert_off_loop("close")
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # loop already gone
        self._thread.join(30.0)
        self.server.broker.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc_info):
        self.close()
        return False


def start_in_thread(config=None, broker=None, metrics=None):
    """Start a server on a daemon thread; returns a :class:`ServerHandle`.

    The default config binds an ephemeral port on localhost — read it
    off ``handle.port``.
    """
    if config is None:
        config = ServiceConfig(port=0)
    server = ServiceServer(config=config, broker=broker, metrics=metrics)
    started = threading.Event()
    box = {}

    def main():
        async def body():
            box["loop"] = asyncio.get_running_loop()
            box["stop"] = asyncio.Event()
            await server.start()
            started.set()
            try:
                await box["stop"].wait()
            finally:
                await server.stop()

        try:
            asyncio.run(body())
        except Exception as exc:
            box["error"] = exc
            started.set()

    thread = threading.Thread(target=main, name="repro-service", daemon=True)
    thread.start()
    started.wait(30.0)
    if "error" in box:
        raise box["error"]
    return ServerHandle(server, box["loop"], box["stop"], thread)
