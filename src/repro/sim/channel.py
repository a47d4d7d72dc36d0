"""Unbounded FIFO message channel between simulation processes."""

from collections import deque


class Channel:
    """A FIFO of messages with blocking ``get``.

    ``put`` never blocks (the channel is unbounded — backpressure in the
    modeled systems is expressed by the protocols built on top, e.g.
    virtio ring sizes).  ``get`` is a generator to be used as
    ``msg = yield from channel.get()``.
    """

    def __init__(self, engine, name=""):
        self.engine = engine
        self.name = name
        self._items = deque()
        self._getters = deque()

    def put(self, item):
        """Append ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            event = self._getters.popleft()
            event.fire(item)
        else:
            self._items.append(item)

    def get(self):
        """Generator: yield until an item is available, return it."""
        if self._items:
            return self._items.popleft()
        event = self.engine.event("%s.get" % self.name)
        self._getters.append(event)
        item = yield event
        return item

