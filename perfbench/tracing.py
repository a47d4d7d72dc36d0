"""In-memory span recording around calls into the program's layers.

The benchmark never edits the program: it replaces module attributes at
run time with wrappers that open a span, call the original, and close
the span.  A span is ``[id, name, start_ns, end_ns, parent_id,
request_id, attrs]`` on the system-wide monotonic clock, so spans
recorded in a server process line up with timestamps taken by the
client process.  Parents follow ``contextvars``: nested calls on one
thread or one asyncio task nest, while a new thread starts a fresh
tree.  Spans stay in memory and are written out once, when the run
ends.
"""

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time

now_ns = time.monotonic_ns

ID, NAME, START, END, PARENT, REQUEST, ATTRS = range(7)


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        #: set by a caller to tag the spans of one operation
        self.request = contextvars.ContextVar("perfbench_request", default=None)

    def current(self):
        return self._current.get()

    def _open(self, name):
        parent = self._current.get()
        span_id = next(self._ids)
        request = self.request.get()
        if request is None:
            request = parent[REQUEST] if parent is not None else span_id
        span = [span_id, name, now_ns(), 0, parent[ID] if parent else None, request, None]
        self.spans.append(span)
        return span, self._current.set(span)

    def wrap(self, fn, name, on_return=None):
        """A wrapper recording one span per call of ``fn``.

        ``on_return(span, args, kwargs, result)`` may store attributes
        in ``span[ATTRS]`` after a call that returned normally.
        """
        if inspect.iscoroutinefunction(fn):

            async def wrapper(*args, **kwargs):
                span, token = self._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span[END] = now_ns()
                    self._current.reset(token)
                if on_return is not None:
                    on_return(span, args, kwargs, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                span, token = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[END] = now_ns()
                    self._current.reset(token)
                if on_return is not None:
                    on_return(span, args, kwargs, result)
                return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["spans"]


def install(recorder, module_name, attr, span_name, on_return=None):
    """Wrap ``module.attr`` in every ``repro`` namespace that binds it.

    A function imported by name (``from repro.core.testbed import
    build_testbed``) is a separate binding in the importing module, and
    calls through that module never see a wrapper on the defining
    module alone; so every loaded ``repro`` module whose attribute *is*
    the original gets the wrapper.  For ``Class.method`` the class
    attribute is replaced.
    """
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.partition(".")
    if method:
        owner = getattr(module, owner_name)
        original = owner.__dict__[method]
        setattr(owner, method, recorder.wrap(original, span_name, on_return))
        return
    original = getattr(module, attr)
    wrapper = recorder.wrap(original, span_name, on_return)
    for name, loaded in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        if getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapper)
