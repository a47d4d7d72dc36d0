"""The asyncio query endpoint: admission, budgets, deadlines, routing.

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
capacity.  Budgets reject a query whose *deduplicated* cell plan
exceeds the per-query cell budget before anything is enqueued.
Deadlines bound only the requester's wait: the underlying batch keeps
running under ``asyncio.shield`` so coalesced siblings of a timed-out
query still get their results (a deadline is the client giving up, not
the work being wrong).
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
ENV_PORT = "REPRO_SERVE_PORT"
ENV_ADMIT_MAX = "REPRO_ADMIT_MAX"
ENV_QUERY_BUDGET = "REPRO_QUERY_BUDGET"
ENV_DRAIN_TIMEOUT = "REPRO_DRAIN_TIMEOUT"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_ADMIT_MAX = 64
DEFAULT_DRAIN_TIMEOUT = 30.0

#: the Retry-After we advise on shed/drain 503s (seconds)
RETRY_AFTER_S = 1

#: server-owned instruments (pre-registered; see broker.BROKER_COUNTERS)
SERVER_COUNTERS = (
    "service.queries",
    "service.queries.ok",
    "service.queries.errors",
    "service.admit.rejects",
    "service.budget.rejects",
    "service.deadline.expired",
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
    query_budget: int = 0  # max cells per query; 0 = unlimited
    cache_dir: str = None
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT

    @classmethod
    def from_env(cls, environ=None, **overrides):
        environ = os.environ if environ is None else environ
        drain_text = environ.get(ENV_DRAIN_TIMEOUT)
        try:
            drain_timeout = (
                float(drain_text) if drain_text else DEFAULT_DRAIN_TIMEOUT
            )
        except ValueError:
            raise ConfigurationError(
                "%s=%r is not a number" % (ENV_DRAIN_TIMEOUT, drain_text)
            )
        config = cls(
            host=environ.get(ENV_HOST) or DEFAULT_HOST,
            port=_env_int(environ, ENV_PORT, protocol.DEFAULT_PORT, 0),
            admit_max=_env_int(environ, ENV_ADMIT_MAX, DEFAULT_ADMIT_MAX, 1),
            query_budget=_env_int(environ, ENV_QUERY_BUDGET, 0, 0),
            cache_dir=environ.get("REPRO_CACHE_DIR") or None,
            drain_timeout=drain_timeout,
        )
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        return config


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
        for name in SERVER_COUNTERS:
            self.metrics.counter(name)
        self.metrics.gauge("service.admit.active")
        self._active = 0  # queries admitted and not yet answered
        self._draining = False  # set once; new queries 503 shutting-down
        self._server = None
        self.port = None

    @property
    def active(self):
        return self._active

    @property
    def draining(self):
        return self._draining

    # --- lifecycle --------------------------------------------------------

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def begin_drain(self):
        """Flip admission off: every new query 503s ``shutting-down``.

        Already-admitted queries (and the broker batch carrying them)
        keep running to completion — draining sheds *future* work only.
        """
        self._draining = True

    async def drain(self, timeout=None):
        """Wait for residence to empty; True if fully drained in time.

        The drain condition is "no admitted query is still waiting and
        the broker's in-flight registry is empty" — i.e. zero queries
        can be dropped by stopping now.
        """
        self.begin_drain()
        if timeout is None:
            timeout = self.config.drain_timeout
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._active > 0 or self.broker.inflight_count() > 0:
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    # --- connection handling ----------------------------------------------

    async def _handle(self, reader, writer):
        try:
            try:
                request = await protocol.read_request(reader)
            except protocol.ProtocolError as exc:
                status = protocol.error_status(protocol.BAD_REQUEST)
                document = protocol.error_document(protocol.BAD_REQUEST, str(exc))
            else:
                if request is None:  # bare TCP ping (health probes)
                    return
                try:
                    status, document = await self._route(*request)
                except Exception as exc:  # never leak a traceback as a hang
                    status = protocol.error_status(protocol.INTERNAL)
                    document = protocol.error_document(
                        protocol.INTERNAL,
                        "%s: %s" % (type(exc).__name__, exc),
                    )
            headers = None
            if isinstance(document, dict):
                retry_after = (document.get("error") or {}).get("retry_after")
                if retry_after is not None:
                    headers = {"Retry-After": str(retry_after)}
            writer.write(protocol.format_response(status, document, headers))
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, method, path, _headers, body):
        if path == "/healthz" and method == "GET":
            return 200, {
                "schema": protocol.SCHEMA,
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
                "schema": protocol.SCHEMA,
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
        self.metrics.counter("service.queries").inc()
        if self._draining:
            # drain phase: shed before admission, advise a retry — the
            # peer instance (or the restarted one) will take it
            self.metrics.counter("service.admit.rejects").inc()
            return 503, protocol.error_document(
                protocol.SHUTTING_DOWN,
                "server is draining for shutdown",
                retry_after=RETRY_AFTER_S,
            )
        if self._active >= self.config.admit_max:
            # shed-on-overload: reject *before* canonicalization so a
            # shed request costs no planning and enqueues nothing
            self.metrics.counter("service.admit.rejects").inc()
            return 503, protocol.error_document(
                protocol.OVERLOADED,
                "admission queue at capacity (%d active)" % self._active,
                active=self._active,
                admit_max=self.config.admit_max,
                retry_after=RETRY_AFTER_S,
            )
        self._active += 1
        self.metrics.gauge("service.admit.active").set(self._active)
        try:
            status, document = await self._admitted(body)
        finally:
            self._active -= 1
            self.metrics.gauge("service.admit.active").set(self._active)
        if document.get("ok"):
            self.metrics.counter("service.queries.ok").inc()
        else:
            self.metrics.counter("service.queries.errors").inc()
        return status, document

    async def _admitted(self, body):
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            return 400, protocol.error_document(
                protocol.BAD_REQUEST, "request body is not valid JSON"
            )
        try:
            query, options = queries.canonicalize(payload)
        except ConfigurationError as exc:
            return 400, protocol.error_document(protocol.BAD_REQUEST, str(exc))
        base_specs, exec_specs = queries.plan(query)

        budget = self.config.query_budget
        if options["budget_cells"] is not None:
            budget = (
                min(budget, options["budget_cells"])
                if budget
                else options["budget_cells"]
            )
        if budget and len(exec_specs) > budget:
            self.metrics.counter("service.budget.rejects").inc()
            return 400, protocol.error_document(
                protocol.BUDGET_EXCEEDED,
                "query plans %d cells, budget is %d" % (len(exec_specs), budget),
                cells=len(exec_specs),
                budget=budget,
                query_key=query.key,
            )

        try:
            futures, stats = self.broker.submit(exec_specs)
        except broker_mod.BrokerClosed as exc:
            return 503, protocol.error_document(protocol.SHUTTING_DOWN, str(exc))
        if stats["coalesced"]:
            self.metrics.counter("service.coalesce.queries").inc()

        gather = asyncio.gather(
            *[asyncio.wrap_future(future) for future in futures.values()]
        )
        deadline_ms = options["deadline_ms"]
        if deadline_ms is not None:
            try:
                verdicts = await asyncio.wait_for(
                    asyncio.shield(gather), deadline_ms / 1000.0
                )
            except asyncio.TimeoutError:
                self.metrics.counter("service.deadline.expired").inc()
                # the batch keeps running for coalesced siblings; swallow
                # its eventual value so nothing warns about an orphan
                gather.add_done_callback(_discard_result)
                return 504, protocol.error_document(
                    protocol.DEADLINE_EXCEEDED,
                    "query exceeded its %.0fms deadline" % deadline_ms,
                    deadline_ms=deadline_ms,
                    query_key=query.key,
                )
        else:
            verdicts = await gather

        results = {}
        failed = []
        for cell_id, (kind, value) in zip(futures.keys(), verdicts):
            if kind == "ok":
                results[cell_id] = value
            else:
                failed.append(value)
        if failed:
            return 500, protocol.error_document(
                protocol.CELL_FAILED,
                "%d cell(s) exhausted the retry ladder" % len(failed),
                failed_cells=failed,
                query_key=query.key,
            )
        result = queries.assemble(
            query, queries.rekey(results, base_specs, exec_specs)
        )
        owned = set(stats["owned"])
        sources = [results[cell_id].source for cell_id in owned]
        document = queries.success_document(
            query,
            result,
            {
                "cells": stats["cells"],
                "coalesced": stats["coalesced"],
                "cached": sum(1 for source in sources if source == "cache"),
                "simulated": sum(1 for source in sources if source == "run"),
            },
        )
        return 200, document


def _discard_result(task):
    if not task.cancelled():
        task.exception()  # verdicts are values; this only clears the flag


# --- running it ----------------------------------------------------------


def run_forever(server, announce=None):
    """Foreground mode (``python -m repro serve``): serve until signaled.

    SIGTERM and SIGINT both trigger the graceful drain state machine:

    1. **draining** — admission flips off (new queries shed with 503
       ``shutting-down`` + ``Retry-After``) while admitted queries and
       the broker's in-flight batch run to completion;
    2. **drained** — residence hit zero (or ``drain_timeout`` expired —
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
            print("draining (max %.0fs)" % server.config.drain_timeout, file=sys.stderr)
            drained = await server.drain()
            if not drained:
                print(
                    "drain timeout after %.0fs: %d query(ies) still active"
                    % (server.config.drain_timeout, server.active),
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
    """A running in-thread server (tests, loadgen, notebooks)."""

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
        """Flip the server into draining (thread-safe: it's one flag)."""
        self.server.begin_drain()

    def _assert_off_loop(self, what):
        """Refuse to block *on* the loop this handle manages.

        ``drain``/``close`` park the calling thread on a future the
        server loop must fulfil — called from that same loop they would
        deadlock until the timeout.  The lint-level counterpart is
        CON001; this runtime guard turns the latent deadlock into an
        immediate, actionable error.
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
        budget = timeout if timeout is not None else self.server.config.drain_timeout
        # repro-lint: ignore[CON001] — proven off-loop: the guard above
        # raises when invoked from this server's loop thread, and the
        # event-loop context here is the resolver's documented fuzzy
        # `drain` name collision with the async ServiceServer.drain.
        return future.result(budget + 30.0)

    def close(self):
        self._assert_off_loop("close")
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # loop already gone
        # repro-lint: ignore[CON001] — proven off-loop (guard above);
        # loop reachability is the fuzzy `close` collision with the
        # stream writer's close() in ServiceServer._handle.
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
