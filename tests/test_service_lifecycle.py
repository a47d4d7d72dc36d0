"""Graceful service lifecycle: drain, worker supervision, SIGTERM.

The contract: flipping into *draining* sheds every **new** query with a
stable 503 ``shutting-down`` (plus a ``Retry-After`` header) while
every already-admitted query — and any coalesced sibling riding the
same broker batch — runs to completion; the drain condition is "zero
queries would be dropped by stopping now".  Underneath, the broker's
worker thread is supervised: an unexpected death fails its generation's
futures with a ``worker-death`` verdict (nobody wedges) and a fresh
worker respawns, so the server keeps serving.
"""

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.service import protocol, queries
from repro.service.broker import SimulationBroker
from repro.service.server import ServiceConfig

from tests.serviceutil import (
    WAIT_S,
    QueryThread,
    ServiceClient,
    counter_value,
    running_server,
    wait_until,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _no_retry_client(port):
    from repro.service.client import RetryConfig

    return ServiceClient(port=port, timeout=WAIT_S, retry=RetryConfig(retries=0))


def _micro_specs():
    query, _options = queries.canonicalize(
        {"target": "micro", "params": {"key": "kvm-arm"}}
    )
    _base, exec_specs = queries.plan(query)
    return exec_specs


class TestDrain:
    def test_draining_sheds_with_shutting_down_and_retry_after(self):
        with running_server() as (handle, client):
            handle.begin_drain()
            status, document = client.query_raw({"target": "table3"})
            assert status == 503
            assert document["error"]["code"] == protocol.SHUTTING_DOWN
            assert document["error"]["retry_after"] == 1

            # the advice is also an HTTP header, for clients that only
            # speak status lines
            connection = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=WAIT_S
            )
            try:
                connection.request(
                    "POST",
                    "/v1/query",
                    body=json.dumps({"target": "table3"}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 503
                assert response.getheader("Retry-After") == "1"
            finally:
                connection.close()

            _status, health = client.request("GET", "/healthz")
            assert health["status"] == "draining"
            assert counter_value(handle, "service.admit.rejects") == 2

    def test_healthz_reports_ok_before_drain(self):
        with running_server() as (handle, client):
            _status, health = client.request("GET", "/healthz")
            assert health["status"] == "ok"
            assert handle.server.draining is False

    def test_admitted_query_completes_during_drain(self):
        with running_server() as (handle, client):
            handle.broker.hold()
            inflight = QueryThread(
                _no_retry_client(handle.port), "micro", {"key": "kvm-arm"}
            )
            inflight.start()
            wait_until(
                lambda: handle.broker.inflight_count() > 0,
                "query to reach the broker",
            )
            handle.begin_drain()

            # a late arrival is shed, not queued behind the drain
            status, document = client.query_raw({"target": "table3"})
            assert status == 503
            assert document["error"]["code"] == protocol.SHUTTING_DOWN

            handle.broker.release()
            assert handle.drain(timeout=WAIT_S) is True
            assert inflight.result()["ok"] is True
            # zero dropped: the one admitted query was answered, the
            # shed one never entered residence
            assert counter_value(handle, "service.queries.ok") == 1
            assert handle.server.active == 0
            assert handle.broker.inflight_count() == 0

    def test_drain_timeout_reports_false_never_hangs(self):
        with running_server() as (handle, _client):
            handle.broker.hold()
            inflight = QueryThread(
                _no_retry_client(handle.port), "micro", {"key": "kvm-arm"}
            )
            inflight.start()
            wait_until(
                lambda: handle.broker.inflight_count() > 0,
                "query to reach the broker",
            )
            start = time.monotonic()
            assert handle.drain(timeout=0.05) is False
            assert time.monotonic() - start < WAIT_S / 2
            handle.broker.release()
            assert inflight.result()["ok"] is True

    def test_drain_of_idle_server_is_immediate(self):
        with running_server() as (handle, _client):
            assert handle.drain(timeout=1.0) is True


class TestWorkerSupervision:
    def test_worker_death_fails_futures_and_respawns(self):
        broker = SimulationBroker()
        try:
            broker.hold()
            futures, _stats = broker.submit(_micro_specs())
            broker._boom = RuntimeError("injected chaos")
            broker.release()

            (future,) = futures.values()
            kind, failure = future.result(WAIT_S)
            assert kind == "failed"
            assert failure["kind"] == "worker-death"
            assert "injected chaos" in failure["error"]
            assert broker.metrics.counter("service.worker.deaths").value == 1
            # the respawn lands right after the futures resolve
            wait_until(
                lambda: broker.metrics.counter("service.worker.respawns").value == 1,
                "worker respawn",
            )
            assert broker.inflight_count() == 0

            # the respawned worker serves the next submission normally
            futures, _stats = broker.submit(_micro_specs())
            (future,) = futures.values()
            kind, result = future.result(WAIT_S)
            assert kind == "ok"
            assert result.payload
        finally:
            broker.close()

    def test_worker_death_through_the_server_then_recovery(self):
        with running_server() as (handle, client):
            handle.broker.hold()
            doomed = QueryThread(
                _no_retry_client(handle.port), "micro", {"key": "kvm-arm"}
            )
            doomed.start()
            wait_until(
                lambda: handle.broker.inflight_count() > 0,
                "query to reach the broker",
            )
            handle.broker._boom = RuntimeError("injected chaos")
            handle.broker.release()

            with pytest.raises(Exception) as excinfo:
                doomed.result()
            document = excinfo.value.document
            assert document["error"]["code"] == protocol.CELL_FAILED
            (failed,) = document["error"]["failed_cells"]
            assert failed["kind"] == "worker-death"

            # nobody is wedged: the same query now succeeds end to end
            healed = client.query("micro", {"key": "kvm-arm"})
            assert healed["ok"] is True
            assert counter_value(handle, "service.worker.respawns") == 1
            _status, health = client.request("GET", "/healthz")
            assert health["active"] == 0


class TestFailingCell:
    def test_failing_cell_fails_once_and_spares_its_batch(self, monkeypatch):
        from repro.runner import cells

        calls = []
        real_run_cell = cells.run_cell

        def run_cell(spec):
            calls.append(spec.id)
            if spec.id == "breakdown":
                raise RuntimeError("injected breakdown failure")
            return real_run_cell(spec)

        monkeypatch.setattr(cells, "run_cell", run_cell)
        with running_server() as (handle, client):
            handle.broker.hold()
            try:
                doomed = QueryThread(_no_retry_client(handle.port), "table3")
                sibling = QueryThread(client, "micro", {"key": "kvm-arm"})
                doomed.start()
                sibling.start()
                wait_until(
                    lambda: counter_value(handle, "service.cells.requested") == 2,
                    "both queries to reach the broker",
                )
            finally:
                handle.broker.release()

            with pytest.raises(Exception) as excinfo:
                doomed.result()
            document = excinfo.value.document
            assert document["error"]["code"] == protocol.CELL_FAILED
            (failed,) = document["error"]["failed_cells"]
            assert failed["id"] == "breakdown"
            assert "injected breakdown failure" in failed["error"]
            assert calls.count("breakdown") == 1  # failed once, no retry

            # the sibling cell rode the same batch and still succeeded
            assert sibling.result()["ok"] is True
            assert counter_value(handle, "service.batches") == 1
            assert counter_value(handle, "service.cells.failed") == 1

            # nothing is wedged: a follow-up query succeeds, admission drains
            assert client.query("micro", {"key": "xen-arm"})["ok"] is True
            _status, health = client.request("GET", "/healthz")
            assert health["active"] == 0


class TestConfig:
    def test_drain_timeout_from_env_and_override(self):
        config = ServiceConfig.from_env(environ={"REPRO_DRAIN_TIMEOUT": "2.5"})
        assert config.drain_timeout == 2.5
        config = ServiceConfig.from_env(
            environ={"REPRO_DRAIN_TIMEOUT": "2.5"}, drain_timeout=7.0
        )
        assert config.drain_timeout == 7.0

    def test_bad_drain_timeout_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServiceConfig.from_env(environ={"REPRO_DRAIN_TIMEOUT": "soon"})


class TestSigtermProcess:
    """The real thing: a ``repro serve`` process, a real SIGTERM."""

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--drain-timeout",
                "10",
            ],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            announce = process.stderr.readline()
            assert "serving on http://" in announce
            port = int(announce.rstrip().rsplit(":", 1)[1])

            client = ServiceClient(port=port, timeout=WAIT_S)
            assert client.query("table3")["ok"] is True

            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=WAIT_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

        assert process.returncode == 0, stderr
        assert "draining" in stderr
        final = [
            json.loads(line)
            for line in stderr.splitlines()
            if line.startswith('{"event": "final-metrics"')
        ]
        assert len(final) == 1
        metrics = final[0]["metrics"]
        assert metrics["service.queries.ok"]["value"] == 1
        assert metrics["service.queries"]["value"] == 1
