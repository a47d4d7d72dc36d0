"""Where the broker answers a cell: hits at submission, misses on the worker.

A submission runs one cache-only pass on the calling thread, so its
cache hits are resolved before ``submit`` returns, even on a held
broker; only the misses reach the worker, whose batches are the only
ones ``service.batches`` counts.  A held worker makes every assertion
here exact.
"""

import asyncio
import logging
import sys
import threading
from concurrent.futures import Future

import pytest

from repro.runner import ResultCache, cells, run_cells
from repro.service import queries
from repro.service.broker import SimulationBroker
from repro.service.server import _all_settled

from tests.serviceutil import WAIT_S

WARM = cells.micro("kvm-arm")
COLD = cells.micro("xen-arm")


@pytest.fixture
def cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    run_cells([WARM], cache=cache)
    return cache


@pytest.fixture
def broker(cache):
    broker = SimulationBroker(cache=cache)
    broker.hold()
    yield broker
    broker.release()
    broker.close()


def _counter(broker, name):
    return broker.metrics.counter(name).value


class TestHitsAtSubmission:
    def test_a_fully_cached_submission_resolves_before_submit_returns(
        self, broker
    ):
        futures, stats = broker.submit([WARM])
        (future,) = futures.values()
        assert future.done()
        kind, result = future.result()
        assert kind == "ok" and result.source == "cache"
        assert stats == {"cells": 1, "coalesced": 0, "owned": [WARM.id]}
        assert broker.inflight_count() == 0
        assert _counter(broker, "service.cells.cached") == 1
        assert _counter(broker, "service.batches") == 0

    def test_a_mixed_submission_sends_only_its_misses_to_the_worker(
        self, broker
    ):
        futures, _stats = broker.submit([WARM, COLD])
        assert futures[WARM.id].done()
        assert not futures[COLD.id].done()
        assert broker.inflight_count() == 1
        assert broker.metrics.gauge("service.queue.cells").value == 1
        broker.release()
        kind, result = futures[COLD.id].result(WAIT_S)
        assert kind == "ok" and result.source == "run"
        assert _counter(broker, "service.batches") == 1
        assert _counter(broker, "service.cells.cached") == 1
        assert _counter(broker, "service.cells.simulated") == 1

    def test_a_cell_in_flight_still_coalesces(self, broker):
        first, _ = broker.submit([COLD])
        second, stats = broker.submit([WARM, COLD])
        assert second[COLD.id] is first[COLD.id]
        assert stats["coalesced"] == 1 and stats["owned"] == [WARM.id]
        broker.release()
        assert first[COLD.id].result(WAIT_S)[0] == "ok"
        assert _counter(broker, "service.cells.simulated") == 1
        assert _counter(broker, "service.cells.coalesced") == 1
        assert _counter(broker, "service.batches") == 1


def test_misses_of_a_submission_accepted_before_close_are_still_run():
    """close() may stop the worker while a submission it already accepted
    runs its cache-only pass; the misses then start a fresh worker."""
    broker = SimulationBroker()
    first, _ = broker.submit([WARM])  # starts the worker (no cache: a miss)
    assert first[WARM.id].result(WAIT_S)[0] == "ok"
    cache_only_pass = broker._execute

    def close_during_the_pass(batch, simulate=True):
        if not simulate:
            closer = threading.Thread(target=broker.close)
            closer.start()
            closer.join(WAIT_S)
            assert not closer.is_alive()
        return cache_only_pass(batch, simulate)

    broker._execute = close_during_the_pass
    second, _ = broker.submit([COLD])
    assert second[COLD.id].result(WAIT_S)[0] == "ok"


def test_a_what_if_miss_is_read_from_the_cache_once(cache, monkeypatch):
    """The worker simulates and stores the cells the cache-only pass
    missed without opening their entries again."""
    query, _options = queries.canonicalize(
        {"target": "table5", "costs": {"arm": {"trap_to_el2": 151}}}
    )
    _base, execs = queries.plan(query)
    loads = []
    load = ResultCache.load

    def counting(self, key):
        loads.append(key)
        return load(self, key)

    monkeypatch.setattr(ResultCache, "load", counting)
    broker = SimulationBroker(cache=cache)
    try:
        futures, _stats = broker.submit(execs)
        verdicts = [future.result(WAIT_S) for future in futures.values()]
        assert all(kind == "ok" and result.source == "run" for kind, result in verdicts)
        assert len(execs) == 3
        assert sorted(loads) == sorted({cache.key_for(spec) for spec in execs})
        # the worker stored every cell: a second submission hits them all
        again, _stats = broker.submit(execs)
        assert all(future.done() for future in again.values())
        assert _counter(broker, "service.cells.cached") == 3
    finally:
        broker.close()


def test_concurrent_submissions_keep_the_counts_whole(cache):
    """More submitting threads than cores, switching often: every future
    resolves, the cold cell is simulated once and every requested cell
    is counted exactly once as cached, simulated or coalesced."""
    broker = SimulationBroker(cache=cache)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def submit():
            futures, _stats = broker.submit([WARM, COLD])
            verdicts = [future.result(WAIT_S) for future in futures.values()]
            results.extend(verdicts)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT_S)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        broker.close()
    assert [kind for kind, _result in results] == ["ok"] * 16
    assert _counter(broker, "service.cells.simulated") == 1
    assert _counter(broker, "service.cells.requested") == 16
    assert (
        _counter(broker, "service.cells.cached")
        + _counter(broker, "service.cells.simulated")
        + _counter(broker, "service.cells.coalesced")
        == 16
    )


class TestOneWakeupPerQuery:
    def test_settles_once_the_last_future_resolves_on_another_thread(self):
        async def scenario():
            futures = [Future(), Future()]
            settled = _all_settled(futures, asyncio.get_running_loop())
            futures[0].set_result(("ok", None))
            await asyncio.sleep(0)
            assert not settled.done()
            resolver = threading.Thread(
                target=futures[1].set_result, args=(("ok", None),)
            )
            resolver.start()
            await asyncio.wait_for(settled, WAIT_S)
            resolver.join(WAIT_S)

        asyncio.run(scenario())

    def test_a_cancelled_waiter_or_closed_loop_does_not_raise(self, caplog):
        caplog.set_level(logging.ERROR, logger="concurrent.futures")
        cancelled_on, closed_on = Future(), Future()

        async def scenario():
            loop = asyncio.get_running_loop()
            _all_settled([cancelled_on], loop).cancel()
            _all_settled([closed_on], loop)
            cancelled_on.set_result(("ok", None))  # the loop's own thread
            await asyncio.sleep(0)

        asyncio.run(scenario())
        resolver = threading.Thread(
            target=closed_on.set_result, args=(("ok", None),)
        )
        resolver.start()
        resolver.join(WAIT_S)
        assert not caplog.records

    def test_a_burst_of_resolving_threads_loses_no_count(self):
        # a lost update of the countdown would leave the waiter unsettled
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        async def scenario():
            futures = [Future() for _ in range(200)]
            settled = _all_settled(futures, asyncio.get_running_loop())

            def resolve(share):
                for future in share:
                    future.set_result(("ok", None))

            threads = [
                threading.Thread(target=resolve, args=(futures[i::4],))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            await asyncio.wait_for(settled, WAIT_S)
            for thread in threads:
                thread.join(WAIT_S)
            assert not any(thread.is_alive() for thread in threads)

        try:
            asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
