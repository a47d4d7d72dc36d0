"""Generator-based simulation processes."""

from repro.sim.events import Timeout


class Process:
    """A coroutine process driven by the engine.

    Wraps a generator that yields commands (:class:`Timeout` or
    :class:`SimEvent`).  When the generator returns, the process is done.
    """

    __slots__ = ("engine", "name", "_generator", "_done")

    def __init__(self, engine, generator, name=""):
        self.engine = engine
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._done = False

    def resume(self, value):
        """Advance the generator with ``value``; dispatch the next command.

        A :class:`Timeout` the engine lets this process run ahead through
        (:meth:`Engine.run_ahead`) resumes the generator here at once,
        without a heap round-trip.
        """
        if self._done:
            return
        engine = self.engine
        observer = engine.observer
        send = self._generator.send
        while True:
            if observer is not None:
                observer.process_resumed(self)
            try:
                command = send(value)
            except StopIteration:
                self._done = True
                return
            if type(command) is Timeout and engine.run_ahead(command.delay):
                value = None
                continue
            engine.dispatch(self, command)
            return

    def __repr__(self):
        state = "done" if self._done else "running"
        return "Process(%r, %s)" % (self.name, state)
