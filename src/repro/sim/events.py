"""Waitable events and command objects understood by the engine."""

from repro.errors import SimulationError


class Timeout:
    """Command: suspend the yielding process for ``delay`` cycles.

    ``delay`` must be a non-negative integer; zero is allowed and yields
    control back to the engine without advancing time (useful to let other
    same-time events run).
    """

    __slots__ = ("delay",)

    def __init__(self, delay):
        if not isinstance(delay, int):
            raise SimulationError("Timeout delay must be an int, got %r" % (delay,))
        if delay < 0:
            raise SimulationError("Timeout delay must be >= 0, got %d" % delay)
        self.delay = delay

    def __repr__(self):
        return "Timeout(%d)" % self.delay


class SimEvent:
    """A one-shot waitable event carrying an optional value.

    Processes wait on an event by yielding it.  Firing an event wakes all
    waiters at the current simulation time.  Events fire at most once.
    """

    __slots__ = ("engine", "name", "_fired", "_value", "_waiters", "_callbacks")

    def __init__(self, engine, name=""):
        self.engine = engine
        self.name = name
        self._fired = False
        self._value = None
        self._waiters = []
        self._callbacks = []

    @property
    def fired(self):
        return self._fired

    @property
    def value(self):
        if not self._fired:
            raise SimulationError("event %r has not fired" % (self.name,))
        return self._value

    def fire(self, value=None):
        """Fire the event, waking all current waiters this cycle."""
        if self._fired:
            raise SimulationError("event %r fired twice" % (self.name,))
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        callbacks, self._callbacks = self._callbacks, []
        for process in waiters:
            self.engine.wake(process, value)
        for callback in callbacks:
            callback(value)

    def add_waiter(self, process):
        if self._fired:
            self.engine.wake(process, self._value)
        else:
            self._waiters.append(process)

    def on_fire(self, callback):
        """Register ``callback(value)`` to run when the event fires."""
        if self._fired:
            callback(self._value)
        else:
            self._callbacks.append(callback)

    def __repr__(self):
        state = "fired" if self._fired else "pending"
        return "SimEvent(%r, %s)" % (self.name, state)

