"""Persistent connections: opt-in keep-alive and its lifecycle.

The async client asks for ``Connection: keep-alive`` and reuses the
connections the server keeps open; everything else (``http.client``,
the CLI) gets one connection per request.  These tests pin the
connection count, the one-request-per-handler shape the benchmark
wraps, the stop and drain paths with an idle connection (or one stuck
mid-body) open, and the transparent replacement of a pooled connection
the server closed.
"""

import asyncio
import logging
import socket
import time

from repro.service import client as client_mod
from repro.service import protocol
from repro.service.client import AsyncServiceClient, RetryConfig
from repro.service.server import ServiceServer, start_in_thread

from tests.serviceutil import WAIT_S, counter_value, running_server, wait_until

KEEP_ALIVE = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n"
PLAIN = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
#: a query that announces a 100-byte body and sends one byte of it
HALF_SENT_BODY = b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n{"


def _connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=WAIT_S)
    sock.settimeout(WAIT_S)
    return sock


def _exchange(sock, request):
    """Send one request; returns the response's lower-cased headers."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "connection closed before a response"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    headers = {}
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    while len(body) < length:
        body += sock.recv(65536)
    return headers


def _at_eof(sock):
    """True once the server has closed ``sock`` (waits up to WAIT_S)."""
    return sock.recv(1) == b""


def _count_opens(monkeypatch):
    """Count the connections the async client opens."""
    opened = []
    real_open = asyncio.open_connection

    async def counting_open(*args, **kwargs):
        opened.append(args)
        return await real_open(*args, **kwargs)

    monkeypatch.setattr(client_mod.asyncio, "open_connection", counting_open)
    return opened


class TestReuse:
    def test_two_concurrent_callers_use_at_most_two_connections(self, monkeypatch):
        opened = _count_opens(monkeypatch)
        handled = []
        real_handle = ServiceServer._handle

        async def counting_handle(self, *args):
            handled.append(args)
            return await real_handle(self, *args)

        monkeypatch.setattr(ServiceServer, "_handle", counting_handle)
        with running_server() as (handle, _client):
            client = AsyncServiceClient(port=handle.port)

            async def callers():
                async def caller():
                    for _ in range(10):
                        assert (await client.query("micro"))["ok"] is True

                await asyncio.gather(caller(), caller())
                await client.close()

            asyncio.run(callers())
            assert len(opened) <= 2
            # one handler call per request, however many share a connection
            assert len(handled) == 20
            assert counter_value(handle, "service.queries") == 20

    def test_idle_wait_is_outside_the_handler(self, monkeypatch):
        durations = []
        real_handle = ServiceServer._handle

        async def timed_handle(self, *args):
            start = time.monotonic()
            try:
                return await real_handle(self, *args)
            finally:
                durations.append(time.monotonic() - start)

        monkeypatch.setattr(ServiceServer, "_handle", timed_handle)
        with running_server() as (handle, _client):
            sock = _connect(handle.port)
            try:
                assert _exchange(sock, KEEP_ALIVE)["connection"] == "keep-alive"
                time.sleep(0.5)  # idle between requests
                assert _exchange(sock, KEEP_ALIVE)["connection"] == "keep-alive"
            finally:
                sock.close()
        assert len(durations) == 2
        assert max(durations) < 0.4, durations

    def test_client_outlives_its_event_loop(self):
        # a connection kept on one event loop cannot serve the next one
        with running_server() as (handle, _client):
            client = AsyncServiceClient(port=handle.port)
            for _ in range(2):
                status, health = asyncio.run(client.request("GET", "/healthz"))
                assert status == 200 and health["ok"] is True

    def test_request_without_keep_alive_is_closed_as_before(self):
        with running_server() as (handle, client):
            sock = _connect(handle.port)
            try:
                headers = _exchange(sock, PLAIN)
                assert headers["connection"] == "close"
                assert _at_eof(sock)
            finally:
                sock.close()
            # the sync client (http.client) is served the same way
            assert client.health() is True


class TestStopAndDrain:
    def test_server_with_an_idle_connection_stops_promptly(self, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")
        handle = start_in_thread()
        sock = _connect(handle.port)
        try:
            assert _exchange(sock, KEEP_ALIVE)["connection"] == "keep-alive"
            start = time.monotonic()
            handle.close()
            elapsed = time.monotonic() - start
            assert elapsed < 5.0, elapsed
            assert _at_eof(sock)
        finally:
            sock.close()
            handle.close()
        assert not caplog.records, [record.getMessage() for record in caplog.records]

    def test_connection_stuck_mid_body_does_not_hold_the_stop(self, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")
        handle = start_in_thread()
        sock = _connect(handle.port)
        try:
            sock.sendall(HALF_SENT_BODY)
            wait_until(lambda: handle.server._reading, "the server to read the body")
            start = time.monotonic()
            handle.close()
            elapsed = time.monotonic() - start
            assert elapsed < 5.0, elapsed
            try:
                answer = sock.recv(65536)
            except ConnectionResetError:
                answer = b""
            assert answer == b"", "a request that never completed was answered"
        finally:
            sock.close()
            handle.close()
        assert not caplog.records, [record.getMessage() for record in caplog.records]

    def test_draining_closes_idle_connections_and_answers_close(self):
        with running_server() as (handle, _client):
            idle = _connect(handle.port)
            try:
                assert _exchange(idle, KEEP_ALIVE)["connection"] == "keep-alive"
                handle.begin_drain()
                assert _at_eof(idle)
            finally:
                idle.close()
            fresh = _connect(handle.port)
            try:
                assert _exchange(fresh, KEEP_ALIVE)["connection"] == "close"
                assert _at_eof(fresh)
            finally:
                fresh.close()

    def test_closed_pooled_connection_is_replaced_once(self, monkeypatch):
        opened = _count_opens(monkeypatch)
        with running_server() as (handle, _client):
            client = AsyncServiceClient(port=handle.port, retry=RetryConfig(retries=0))

            async def scenario():
                first = await client.request("GET", "/healthz")
                # draining closes the now idle pooled connection
                handle.begin_drain()
                reader, _writer = client._idle[0]
                deadline = time.monotonic() + WAIT_S
                while not reader.at_eof():
                    assert time.monotonic() < deadline, "idle connection not closed"
                    await asyncio.sleep(0.005)
                second = await client.query_raw({"target": "table3"})
                await client.close()
                return first, second

            (status, health), (shed_status, shed) = asyncio.run(scenario())
            assert status == 200 and health["ok"] is True
            # the stale connection failed before any response byte, so
            # the query went once more on a fresh connection, and no further
            assert len(opened) == 2
            assert shed_status == 503
            assert shed["error"]["code"] == protocol.SHUTTING_DOWN
            wait_until(
                lambda: counter_value(handle, "service.queries") == 1,
                "the query to be counted",
            )
            assert counter_value(handle, "service.queries") == 1
            assert counter_value(handle, "service.admit.rejects") == 1
