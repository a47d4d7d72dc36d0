"""The coalescing execution core behind the query server.

An in-flight registry maps every cell id a submission has claimed and
not yet answered to the ``concurrent.futures.Future`` that will carry
its verdict.  Submitting a cell that is already in flight *coalesces*:
the caller joins the existing future and the cell is simulated exactly
once no matter how many concurrent queries need it — the concurrency
tests assert the counters to the cell.

A submission answers what it can where it is: after registering its
new cells, :meth:`SimulationBroker.submit` runs one cache-only pass
(:meth:`~SimulationBroker._execute` →
:func:`repro.runner.pool.run_cells_outcome` with ``simulate=False``)
on the calling thread — the server's event loop — and resolves every
hit before it returns.  Only the misses are queued for the one worker
thread, which drains them in batches through the same runner call with
simulation on and cache reads off (each cell was just missed), storing
each result in the cache.  A hit therefore never crosses a thread, a
miss is read from the cache once, and a fully cached submission returns
with all its futures done.

Futures always resolve to a verdict **tuple**, never an exception:

* ``("ok", CellResult)`` — the cell's verified result (fresh or cached);
* ``("failed", failure_dict)`` — the cell raised; it is not retried
  (``FailedCell.as_dict()`` shape).

Resolving with values keeps multi-waiter semantics trivial (no
"exception was never retrieved" warnings, no first-waiter-consumes-it
races) and lets the server translate failures into its stable error
document.  ``run_cells_outcome`` runs every cell of a batch and returns
the failed ones next to the results, so one failing cell cannot cost a
batch that carries other queries' cells.

``hold()`` / ``release()`` are the deterministic test seam: a held
broker still answers hits at submission, but its worker runs no batch,
so a test can pile up a coalescing burst of misses, assert the registry
state, and then let one batch run — no sleeps, no timing assumptions.
``service.batches`` counts the worker's batches only.

There is one worker thread, started by the first miss, and its target
is :meth:`_run` itself.  Nothing in the loop is expected to raise:
``_execute`` turns any exception from the runner into a ``failed``
verdict for every cell of the batch.
"""

import threading
from collections import OrderedDict
from concurrent.futures import Future

from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.runner import pool

#: every broker-owned instrument (pre-registered so metrics snapshots
#: report explicit zeros and cross-thread get-or-create never races)
BROKER_COUNTERS = (
    "service.cells.requested",
    "service.cells.coalesced",
    "service.cells.simulated",
    "service.cells.cached",
    "service.cells.failed",
    "service.batches",
)


class BrokerClosed(ReproError):
    """Submission after shutdown (the server maps this to 503)."""


class SimulationBroker:
    """Single-worker batching executor with in-flight coalescing."""

    def __init__(self, cache=None, metrics=None):
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        (
            self._requested,
            self._coalesced,
            self._simulated,
            self._cached,
            self._failed,
            self._batches,
        ) = [self.metrics.counter(name) for name in BROKER_COUNTERS]
        self._queued = self.metrics.gauge("service.queue.cells")
        self._lock = threading.Lock()
        self._inflight = OrderedDict()  # exec cell id -> (spec, Future)
        self._pending = []  # exec CellSpecs queued for the next batch
        self._wake = threading.Event()
        self._gate = threading.Event()  # cleared = held (test seam)
        self._gate.set()
        self._closed = False
        self._thread = None

    # --- submission ------------------------------------------------------

    def submit(self, specs):
        """Join or claim every cell, answer the hits; returns
        ``(futures, stats)``.

        ``futures`` maps exec cell id to its verdict future, in request
        order; those of cache hits are already done.  ``stats`` reports
        ``cells`` (unique cells requested), ``coalesced`` (joined
        already-in-flight work), and ``owned`` (the ids this submission
        claimed itself — the caller attributes cached-vs-simulated
        counts over exactly these, so a coalesced cell is never double
        counted).
        """
        futures = OrderedDict()
        claimed = []
        coalesced = 0
        with self._lock:
            if self._closed:
                raise BrokerClosed("broker is shutting down")
            for spec in specs:
                if spec.id in futures:
                    continue
                entry = self._inflight.get(spec.id)
                if entry is not None:
                    futures[spec.id] = entry[1]
                    coalesced += 1
                    continue
                future = Future()
                self._inflight[spec.id] = (spec, future)
                futures[spec.id] = future
                claimed.append(spec)
        self._requested.inc(len(futures))
        self._coalesced.inc(coalesced)
        if claimed:
            misses = self._execute(claimed, simulate=False)
            if misses:
                with self._lock:
                    self._pending.extend(misses)
                    queued = len(self._pending)
                    self._ensure_thread()
                    self._wake.set()
                self._queued.set(queued)
        return futures, {
            "cells": len(futures),
            "coalesced": coalesced,
            "owned": [spec.id for spec in claimed],
        }

    def inflight_count(self):
        with self._lock:
            return len(self._inflight)

    # --- the hold/release test seam --------------------------------------

    def hold(self):
        """Park the worker before its next batch (deterministic tests);
        hits are still answered at submission."""
        self._gate.clear()

    def release(self):
        self._gate.set()

    # --- worker ----------------------------------------------------------

    def _ensure_thread(self):
        # caller holds self._lock
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-service-broker", daemon=True
            )
            self._thread.start()

    def _run(self):
        while True:
            self._wake.wait()
            self._gate.wait()
            with self._lock:
                batch = list(self._pending)
                self._pending.clear()
                if not batch:
                    if self._closed:
                        # a submission accepted before close() may still
                        # queue its misses: it starts a fresh worker
                        self._thread = None
                        return
                    self._wake.clear()
            if batch:
                self._queued.set(0)
                self._batches.inc()
                self._execute(batch)

    def _execute(self, batch, simulate=True):
        """One runner pass over ``batch``: resolve the future of every
        cell it answered and return the cells it left unanswered (the
        misses of a cache-only pass; none when simulating, which reads
        no entry: a batch holds only cells a cache-only pass missed)."""
        verdicts = {}
        misses = []
        try:
            outcome = pool.run_cells_outcome(
                batch,
                cache=self.cache,
                metrics=self.metrics,
                simulate=simulate,
                load=not simulate,
            )
        except Exception as exc:  # a runner bug: fail the batch, not the worker
            failure = {
                "id": None,
                "error": "%s: %s" % (type(exc).__name__, exc),
            }
            for spec in batch:
                verdicts[spec.id] = ("failed", dict(failure, id=spec.id))
                self._failed.inc()
        else:
            misses = outcome.misses
            for cell_id, result in outcome.results.items():
                verdicts[cell_id] = ("ok", result)
                if result.source == "cache":
                    self._cached.inc()
                else:
                    self._simulated.inc()
            for failed in outcome.failures:
                verdicts[failed.cell_id] = ("failed", failed.as_dict())
                self._failed.inc()
        with self._lock:
            entries = [
                (cell_id, self._inflight.pop(cell_id))
                for cell_id in verdicts
                if cell_id in self._inflight
            ]
        for cell_id, (_spec, future) in entries:
            # a future some caller cancelled must not raise here (in the
            # worker, that would kill the thread); the transition to
            # RUNNING also makes late cancellations lose the race
            if future.set_running_or_notify_cancel():
                future.set_result(verdicts[cell_id])
        return misses

    # --- shutdown ---------------------------------------------------------

    def close(self, timeout=30.0):
        """Drain pending work, stop the worker, refuse new submissions."""
        with self._lock:
            self._closed = True
            thread = self._thread
        self._gate.set()
        self._wake.set()
        if thread is not None:
            # called by the owning thread on shutdown, never from the loop
            thread.join(timeout)
