"""The discrete-event engine: a deterministic cycle-granular event loop."""

import heapq
import math
from functools import partial

from repro.errors import SimulationError
from repro.sim.events import SimEvent, Timeout
from repro.sim.process import Process


class Engine:
    """Deterministic discrete-event engine with integer cycle time.

    Events scheduled for the same cycle run in scheduling order (FIFO),
    making every simulation fully reproducible.

    **Run-ahead** (the temporal decoupling of SystemC-TLM virtual
    platforms): a process that yields a :class:`Timeout` ending strictly
    before the queue head would be the very next thing the loop pops, so
    :meth:`Process.resume` advances the clock and resumes it at once
    instead of a heap round-trip (:meth:`run_ahead` holds the
    conditions).  The order of every step, and the engine's state on
    return from :meth:`run` or :meth:`run_until_fired`, are the same
    either way.
    """

    #: optional class-wide construction hook, called with each new engine.
    #: The suite runner (repro.runner) uses it to account the engines a
    #: cell builds and the cycles they simulate; it must never schedule
    #: events or otherwise feed back into the simulation.
    created_hook = None

    def __init__(self):
        self._now = 0
        self._queue = []  # heap of (time, seq, callable)
        self._seq = 0
        #: run-ahead bound: the latest time the current run loop may
        #: reach (``run``'s ``until``, ``run_until_fired``'s deadline);
        #: -1 outside a run loop, which disables run-ahead
        self._limit = -1
        #: the event whose firing ends the current ``run_until_fired``
        self._stop = None
        #: optional observability hook (see repro.obs): when set, its
        #: ``process_resumed(process)`` is called on every process resume.
        self.observer = None
        if Engine.created_hook is not None:
            Engine.created_hook(self)

    @property
    def now(self):
        """Current simulation time in cycles."""
        return self._now

    def event(self, name=""):
        """Create a new :class:`SimEvent` bound to this engine."""
        return SimEvent(self, name)

    def schedule(self, delay, callback):
        """Run ``callback()`` after ``delay`` cycles (a non-negative int)."""
        if not isinstance(delay, int):
            # Float delays would silently break the integer-cycle
            # determinism contract Timeout already enforces.
            raise SimulationError(
                "delay must be an integer cycle count, got %r" % (delay,)
            )
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%d)" % delay)
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, callback))

    def spawn(self, generator, name=""):
        """Start a new process from a generator; returns the Process."""
        process = Process(self, generator, name)
        self.schedule(0, partial(process.resume, None))
        return process

    def wake(self, process, value):
        """Schedule ``process`` to resume with ``value`` this cycle."""
        self.schedule(0, partial(process.resume, value))

    def run_ahead(self, delay):
        """Advance the clock by a yielded Timeout's ``delay`` at once, if
        a heap round-trip could change nothing; returns whether it did.

        Only inside a run loop, only while the target time is strictly
        before the queue head (equal times stay FIFO) and at or before
        the loop's bound, and only while the loop's stop event has not
        fired.
        """
        time = self._now + delay
        if time > self._limit:
            return False
        queue = self._queue
        if queue and queue[0][0] <= time:
            return False
        stop = self._stop
        if stop is not None and stop.fired:
            return False
        self._now = time
        return True

    def dispatch(self, process, command):
        """Suspend ``process`` according to the yielded ``command``."""
        if isinstance(command, Timeout):
            self.schedule(command.delay, partial(process.resume, None))
        elif isinstance(command, SimEvent):
            command.add_waiter(process)
        else:
            raise SimulationError(
                "process %r yielded unsupported command %r" % (process.name, command)
            )

    def run(self, until=None):
        """Run the event loop.

        Stops when the queue is empty, or when simulation time would pass
        ``until`` (the clock then rests exactly at ``until``).  An
        ``until`` before the current time is an error: the clock never
        moves backwards.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                "cannot run until %d: the clock is already at %d" % (until, self._now)
            )
        outer = self._limit, self._stop
        self._limit = math.inf if until is None else until
        self._stop = None
        try:
            while self._queue:
                time, _seq, callback = self._queue[0]
                if until is not None and time > until:
                    self._now = until
                    return
                heapq.heappop(self._queue)
                if time < self._now:
                    raise SimulationError(
                        "time went backwards: %d < %d" % (time, self._now)
                    )
                self._now = time
                callback()
        finally:
            self._limit, self._stop = outer
        if until is not None and until > self._now:
            self._now = until

    def run_until_fired(self, event, deadline=None):
        """Run until ``event`` fires; returns its value.

        ``deadline`` is an *absolute* simulation time: once the next queued
        event lies strictly past it, a :class:`SimulationError` is raised
        (the queue stays intact so the caller can recover or inspect).  It
        is not a relative cycle budget — an engine whose ``now`` is already
        at 1e9 needs a deadline past 1e9, not a small count.
        """
        outer = self._limit, self._stop
        self._limit = math.inf if deadline is None else deadline
        self._stop = event
        try:
            while self._queue and not event.fired:
                time, _seq, callback = self._queue[0]
                if deadline is not None and time > deadline:
                    # Peek, don't pop: the queue must stay intact so the
                    # caller can recover (or inspect) after the deadline.
                    raise SimulationError(
                        "event %r did not fire by absolute deadline %d (now=%d)"
                        % (event.name, deadline, self._now)
                    )
                if time < self._now:
                    raise SimulationError(
                        "time went backwards: %d < %d" % (time, self._now)
                    )
                heapq.heappop(self._queue)
                self._now = time
                callback()
        finally:
            self._limit, self._stop = outer
        if not event.fired:
            raise SimulationError("deadlock: queue drained before %r fired" % (event.name,))
        return event.value
