"""Exporters: Chrome trace-event (Perfetto-loadable) JSON and text trees.

The JSON document follows the Chrome trace-event format's "JSON object"
flavor: ``{"traceEvents": [...], ...}``.  Spans become complete ("X")
events, metrics become counter ("C") events, and thread-name metadata
("M") maps each pcpu track to a readable lane.  ``ts``/``dur`` are in
simulated *cycles* (the trace's native unit — Perfetto renders them as
microseconds, which only relabels the axis).

Every emitted event carries the keys ``ph``, ``ts``, ``dur``, ``pid``
and ``tid`` with non-negative integer times — the contract
:func:`check_trace` checks (CI runs it on generated artifacts through
``python -m repro check``).
"""

import json

#: pid used for the single simulated machine in a trace document.
MACHINE_PID = 0
#: tid of the engine-level track (spans with no pcpu tag).
ENGINE_TID = 0
#: the keys every emitted event carries
EVENT_KEYS = ("ph", "ts", "dur", "pid", "tid")
#: the phases emitted: metadata, complete span, counter
PHASES = ("M", "X", "C")


def _tid(pcpu):
    """Map a span's pcpu tag to a stable trace thread id."""
    return ENGINE_TID if pcpu is None else pcpu + 1


def _thread_name(pcpu):
    return "engine" if pcpu is None else "pcpu%d" % pcpu


def chrome_trace_events(recorder, metrics=None, machine_name="machine"):
    """Flatten a SpanRecorder (+ optional MetricsRegistry) into a list of
    Chrome trace-event dicts."""
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "dur": 0,
            "pid": MACHINE_PID,
            "tid": ENGINE_TID,
            "args": {"name": machine_name},
        }
    ]
    tracks = set()
    spans = list(recorder.iter_spans())
    for span in spans:
        tracks.add(span.pcpu)
    for pcpu in sorted(tracks, key=_tid):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "dur": 0,
                "pid": MACHINE_PID,
                "tid": _tid(pcpu),
                "args": {"name": _thread_name(pcpu)},
            }
        )
    last_ts = 0
    for span in spans:
        end = span.end if span.end is not None else span.start
        last_ts = max(last_ts, end)
        events.append(
            {
                "name": span.name,
                "cat": span.category or "uncategorized",
                "ph": "X",
                "ts": span.start,
                "dur": end - span.start,
                "pid": MACHINE_PID,
                "tid": _tid(span.pcpu),
                "args": {"self_cycles": span.self_cycles},
            }
        )
    if metrics is not None:
        for name, snap in metrics.snapshot().items():
            if snap["kind"] not in ("counter", "gauge"):
                continue
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": last_ts,
                    "dur": 0,
                    "pid": MACHINE_PID,
                    "tid": ENGINE_TID,
                    "args": {"value": snap["value"]},
                }
            )
    return events


def chrome_trace_document(recorder, metrics=None, machine_name="machine", extra=None):
    """The full JSON-object-format trace document (a plain dict)."""
    document = {
        "traceEvents": chrome_trace_events(recorder, metrics, machine_name),
        "displayTimeUnit": "ns",
        "otherData": {"time_unit": "cycles", "machine": machine_name},
    }
    if metrics is not None:
        document["otherData"]["metrics"] = metrics.snapshot()
    if extra:
        document["otherData"].update(extra)
    return document


def write_chrome_trace(path, recorder, metrics=None, machine_name="machine", extra=None):
    """Serialize the trace document to ``path``; returns the document."""
    document = chrome_trace_document(recorder, metrics, machine_name, extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document


def check_trace(document):
    """Problems with a trace document (an empty list when it is valid):
    a non-empty ``traceEvents`` list of events with every key of
    ``EVENT_KEYS``, a phase of ``PHASES``, non-negative integer
    ``ts``/``dur``, and at least one complete ("X") span."""
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    problems = []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append("event %d is not an object" % index)
            continue
        problems += ["event %d lacks %r" % (index, key) for key in EVENT_KEYS if key not in event]
        if event.get("ph") not in PHASES:
            problems.append("event %d has unknown ph %r" % (index, event.get("ph")))
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append("event %d %s=%r is not a non-negative int" % (index, key, value))
    if not any(isinstance(event, dict) and event.get("ph") == "X" for event in events):
        problems.append("no complete ('X') span events")
    return problems


def render_span_tree(recorder, show_pcpu=True):
    """Render recorded spans as an indented text tree (a poor man's
    flame graph), one root per line group:

    .. code-block:: text

        hypercall                                  2417 cycles  [pcpu4]
        ├─ split_mode_exit                         1583 cycles  [pcpu4]
        │  ├─ trap_to_el2                            27 cycles
        ...
    """
    lines = []
    for root in recorder.roots:
        _render_span(root, "", "", lines, show_pcpu)
    return "\n".join(lines)


def _render_span(span, lead, child_lead, lines, show_pcpu):
    label = lead + span.name
    tail = "%d cycles" % span.duration
    if show_pcpu and span.pcpu is not None:
        tail += "  [pcpu%d]" % span.pcpu
    lines.append("%s %s" % (label.ljust(48), tail))
    for index, child in enumerate(span.children):
        last = index == len(span.children) - 1
        branch = "└─ " if last else "├─ "
        extend = "   " if last else "│  "
        _render_span(child, child_lead + branch, child_lead + extend, lines, show_pcpu)


def render_metrics(metrics):
    """Render a metrics snapshot as aligned text lines."""
    lines = []
    for name, snap in metrics.snapshot().items():
        if snap["kind"] == "histogram":
            value = "n=%d total=%d mean=%.1f" % (snap["count"], snap["total"], snap["mean"])
        else:
            value = str(snap["value"])
        lines.append("%s %s" % (name.ljust(32), value))
    return "\n".join(lines)
