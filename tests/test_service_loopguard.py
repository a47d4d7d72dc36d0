"""ServerHandle off-loop guard + event-loop responsiveness regression.

``ServerHandle.drain``/``close`` block the calling thread on work the
server loop must perform.  Invoked *from* that loop, the loop waits on
itself and the call deadlocks until its timeout; the handle refuses with
a RuntimeError instead.  And the loop itself must keep answering
``/healthz`` while a slow query is parked on the broker.
"""

import asyncio

from tests.serviceutil import (
    WAIT_S,
    counter_value,
    launch_queries,
    running_server,
    wait_until,
)


def _call_on_loop(handle, call):
    """Run ``call()`` inside the server's own event loop; return the
    RuntimeError message it raised, or None if it went through."""

    async def probe():
        try:
            call()
        except RuntimeError as exc:
            return str(exc)
        return None

    return asyncio.run_coroutine_threadsafe(probe(), handle._loop).result(WAIT_S)


class TestOffLoopGuard:
    def test_drain_refuses_to_run_on_the_server_loop(self):
        with running_server() as (handle, _client):
            message = _call_on_loop(handle, handle.drain)
            assert message is not None and "deadlock" in message

    def test_close_refuses_to_run_on_the_server_loop(self):
        with running_server() as (handle, _client):
            message = _call_on_loop(handle, handle.close)
            assert message is not None and "deadlock" in message
        # leaving the with-block ran close() off-loop, proving the guard
        # only rejects the deadlocking call shape

    def test_drain_still_works_from_other_threads(self):
        with running_server() as (handle, _client):
            assert handle.drain(timeout=WAIT_S) is True


class TestLoopResponsiveness:
    def test_healthz_answers_while_a_slow_query_is_in_flight(self):
        """Regression for the blocking-drain hazard: with the broker held
        (a provably in-flight slow query), the loop must still serve
        liveness probes immediately."""
        with running_server() as (handle, client):
            handle.broker.hold()
            try:
                threads = launch_queries(client, [("table2", None)])
                wait_until(
                    lambda: counter_value(handle, "service.cells.requested") == 4,
                    "the slow query to register",
                )
                for _ in range(3):
                    status, health = client.request("GET", "/healthz")
                    assert status == 200
                    assert health["ok"] is True
                    assert health["status"] == "ok"
            finally:
                handle.broker.release()
            (document,) = [thread.result() for thread in threads]
            assert document["stats"]["cells"] == 4
