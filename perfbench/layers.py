"""Which calls the traced runs wrap, and the per-layer metrics built from them.

Every wrapped call becomes a span named after the layer it enters
(``runner.cells``, ``service.queries.plan``, ...).  Two slices of the
spans feed the metrics:

* the **count pass** — the first operations of the seeded stream, run
  one at a time on a fresh system.  Counts taken there (cells, cycles,
  engines, fast-lane and cache events, testbed builds) repeat exactly
  for a seed, and ``EXACT`` lists them;
* the **window** — the timed closed loop.  Times taken there are either
  the mean per call of one span (``runner.pool.execute_ms.<kind>``,
  ``core.testbed.build_ms``, ``service.broker.wait_ms``) or a layer's
  self time per completed operation (every other ``_ms`` metric), so
  the layer shares add up towards the per-operation latency.
"""

from collections import defaultdict

import tracing
from tracing import ATTRS, END, ID, NAME, PARENT, START

#: cell kinds, in the order ``repro.runner.cells.CELL_KINDS`` lists them
KINDS = ("micro", "breakdown", "tcprr", "appcol", "ablation", "oversub")
#: the profile split's packages (anything else is ``other``)
PACKAGES = ("sim", "hw", "hv", "os", "workloads", "core", "runner", "service", "obs")
FASTPATH = ("hits", "misses", "recordings", "rejects")

_CELLS_PLANNERS = (
    "full_report_cells", "bench_cells", "table2_cells", "table3_cells",
    "table5_cells", "figure4_cells", "ablation_cells", "vhe_cells",
    "oversubscription_cells", "dedupe", "with_cost_overrides",
    "strip_cost_overrides",
)
_MERGERS = (
    "full_report_text", "table2_results", "breakdown_result", "table5_results",
    "figure4_grid", "ablation_grid", "vhe_comparison", "oversubscription_grid",
)


def _cell_attrs(span, args, _kwargs, result):
    span[ATTRS] = {
        "kind": args[0].kind,
        "cycles": result.simulated_cycles,
        "engines": result.engines,
        "fastpath": result.fastpath,
    }


def _load_attrs(span, _args, _kwargs, result):
    span[ATTRS] = {"hit": result is not None}


def _batch_attrs(span, args, _kwargs, _result):
    span[ATTRS] = {"cells": len(args[1])}


def _submit_hook(recorder):
    """Record how many cells a submission coalesced and when its last
    future resolved, inside which broker batch."""

    def on_return(span, _args, _kwargs, result):
        futures, stats = result
        attrs = span[ATTRS] = {
            "coalesced": stats["coalesced"],
            "resolved": 0,
            "batch": None,
        }

        def resolved(_future):
            batch = recorder.current()
            attrs["resolved"] = tracing.now_ns()
            attrs["batch"] = batch[ID] if batch is not None else None

        for future in futures.values():
            future.add_done_callback(resolved)

    return on_return


def install_all(recorder):
    """Wrap every layer boundary."""
    import repro.cli  # noqa: F401  (binds build_testbed too)
    import repro.core.suite  # noqa: F401
    import repro.service.server  # noqa: F401

    table = [
        ("repro.runner.pool", "execute_cell", "runner.pool.execute_cell", _cell_attrs),
        ("repro.runner.pool", "run_cells_outcome", "runner.pool.run_cells_outcome", None),
        ("repro.runner.cache", "ResultCache.load", "runner.cache.load", _load_attrs),
        ("repro.runner.cache", "ResultCache.store", "runner.cache.store", None),
        ("repro.runner.cache", "ResultCache.key_for", "runner.cache.key", None),
        ("repro.runner.cache", "ResultCache.base_fingerprint", "runner.cache.base", None),
        ("repro.core.testbed", "build_testbed", "core.testbed.build", None),
        ("repro.service.protocol", "read_request", "service.protocol.read", None),
        ("repro.service.protocol", "format_response", "service.protocol.write", None),
        ("repro.service.queries", "canonicalize", "service.queries.canonicalize", None),
        ("repro.service.queries", "plan", "service.queries.plan", None),
        ("repro.service.queries", "assemble", "service.queries.assemble", None),
        ("repro.service.queries", "rekey", "service.queries.assemble", None),
        ("repro.service.queries", "success_document", "service.queries.digest", None),
        ("repro.service.broker", "SimulationBroker.submit", "service.broker.submit",
         _submit_hook(recorder)),
        ("repro.service.broker", "SimulationBroker._execute", "service.broker.batch",
         _batch_attrs),
        ("repro.service.server", "ServiceServer._handle", "service.server.handle", None),
        ("repro.service.server", "ServiceServer._query", "service.server.query", None),
    ]
    table += [("repro.runner.cells", name, "runner.cells", None) for name in _CELLS_PLANNERS]
    table += [("repro.runner.merge", name, "runner.merge", None) for name in _MERGERS]
    for module, attr, span_name, on_return in table:
        tracing.install(recorder, module, attr, span_name, on_return)


#: spans each workload must record at least one call of (the traced run
#: fails otherwise: a wrapper on a binding nobody calls through reads 0)
EXPECTED = {
    "report": (
        "runner.pool.execute_cell", "runner.pool.run_cells_outcome",
        "core.testbed.build", "runner.cells", "runner.merge",
    ),
    "whatif": (
        "runner.pool.execute_cell", "runner.pool.run_cells_outcome",
        "core.testbed.build", "runner.cache.load", "runner.cache.store",
        "runner.cache.key", "service.broker.submit", "service.broker.batch",
    ),
    "hot": (
        "runner.pool.run_cells_outcome", "runner.cells", "runner.merge",
        "runner.cache.load", "runner.cache.key", "service.protocol.read",
        "service.protocol.write", "service.queries.canonicalize",
        "service.queries.plan", "service.queries.assemble",
        "service.queries.digest", "service.broker.submit",
        "service.broker.batch", "service.server.handle", "service.server.query",
    ),
}
#: cell kinds whose execute spans each workload must record
EXPECTED_KINDS = {
    "report": ("micro", "breakdown", "tcprr", "appcol", "ablation"),
    "whatif": KINDS,
    "hot": (),
}

#: (name, unit, better) of every per-layer metric, in output order
PER_LAYER = (
    [("runner.pool.execute_ms.%s" % kind, "ms", "lower") for kind in KINDS]
    + [("sim.host_ns_per_kcycle.%s" % kind, "ns/kcycle", "lower") for kind in KINDS]
    + [("sim.cycles.%s" % kind, "count", "lower") for kind in KINDS]
    + [("sim.engines.%s" % kind, "count", "lower") for kind in KINDS]
    + [("sim.fastpath.%s" % name, "count", "higher" if name == "hits" else "lower")
       for name in FASTPATH]
    + [
        ("sim.fastpath.hit_rate", "ratio", "higher"),
        ("core.testbed.build_ms", "ms", "lower"),
        ("core.testbed.builds", "count", "lower"),
        ("runner.cells.plan_ms", "ms", "lower"),
        ("runner.merge.render_ms", "ms", "lower"),
        ("runner.pool.overhead_ms", "ms", "lower"),
        ("runner.cache.load_ms", "ms", "lower"),
        ("runner.cache.store_ms", "ms", "lower"),
        ("runner.cache.key_ms", "ms", "lower"),
        ("runner.cache.hits", "count", "higher"),
        ("runner.cache.misses", "count", "lower"),
        ("runner.cache.stores", "count", "lower"),
        ("runner.cache.hit_ratio", "ratio", "higher"),
        ("service.protocol.read_ms", "ms", "lower"),
        ("service.protocol.write_ms", "ms", "lower"),
        ("service.queries.canonicalize_ms", "ms", "lower"),
        ("service.queries.plan_ms", "ms", "lower"),
        ("service.queries.assemble_ms", "ms", "lower"),
        ("service.queries.digest_ms", "ms", "lower"),
        ("service.broker.wait_ms", "ms", "lower"),
        ("service.broker.batches", "1/op", "lower"),
        ("service.broker.cells_per_batch", "count", "higher"),
        ("service.broker.coalesced", "1/op", "higher"),
        ("service.client.overhead_ms", "ms", "lower"),
        ("service.admit.rejects", "count", "lower"),
        ("service.cells.simulated", "count", "lower"),
        ("service.cells.cached", "count", "higher"),
        ("trace.p50_ms", "ms", "lower"),
        ("trace.untraced_p50_ms", "ms", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
    ]
    + [("self_pct.%s" % package, "%", "lower") for package in PACKAGES + ("other",)]
)

#: per-layer metrics that must repeat exactly for a seed
EXACT = tuple(
    name
    for name, unit, _better in PER_LAYER
    if unit == "count"
    and not name.startswith(("service.admit", "service.broker"))
)


#: spans whose wrapper stores attributes after a normal return
_ATTRIBUTED = (
    "runner.pool.execute_cell", "runner.cache.load",
    "service.broker.submit", "service.broker.batch",
)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def derive(spans, in_window, in_count, window_ops):
    """Per-layer metrics from one traced run's spans (see module doc).

    ``in_window`` / ``in_count`` select the spans of the timed window
    and of the count pass; ``window_ops`` is the number of operations
    the window completed.
    """
    # unfinished spans, and calls that raised (no attributes), carry no data
    spans = [
        span for span in spans
        if span[END] and (span[ATTRS] is not None or span[NAME] not in _ATTRIBUTED)
    ]
    by_id = {span[ID]: span for span in spans}
    child_ns = defaultdict(int)
    for span in spans:
        if span[PARENT] is not None:
            child_ns[span[PARENT]] += span[END] - span[START]
    window = [span for span in spans if in_window(span)]
    counted = [span for span in spans if in_count(span)]

    def named(group, name):
        return [span for span in group if span[NAME] == name]

    def per_op_self_ms(*names):
        total = sum(
            span[END] - span[START] - child_ns[span[ID]]
            for span in window
            if span[NAME] in names
        )
        return total / 1e6 / window_ops if window_ops else 0.0

    metrics = {}
    executed = named(window, "runner.pool.execute_cell")
    for kind in KINDS:
        runs = [span for span in executed if span[ATTRS]["kind"] == kind]
        metrics["runner.pool.execute_ms.%s" % kind] = _mean(
            [(span[END] - span[START]) / 1e6 for span in runs]
        )
        kcycles = sum(span[ATTRS]["cycles"] for span in runs) / 1000.0
        metrics["sim.host_ns_per_kcycle.%s" % kind] = (
            sum(span[END] - span[START] for span in runs) / kcycles if kcycles else 0.0
        )
        counted_runs = [
            span for span in named(counted, "runner.pool.execute_cell")
            if span[ATTRS]["kind"] == kind
        ]
        metrics["sim.cycles.%s" % kind] = sum(span[ATTRS]["cycles"] for span in counted_runs)
        metrics["sim.engines.%s" % kind] = sum(span[ATTRS]["engines"] for span in counted_runs)

    lane = dict.fromkeys(FASTPATH, 0)
    for span in named(counted, "runner.pool.execute_cell"):
        for name, count in span[ATTRS]["fastpath"].items():
            lane[name] = lane.get(name, 0) + count
    for name in FASTPATH:
        metrics["sim.fastpath.%s" % name] = lane[name]
    attempts = sum(lane.values())
    metrics["sim.fastpath.hit_rate"] = lane["hits"] / attempts if attempts else 0.0

    metrics["core.testbed.build_ms"] = _mean(
        [(span[END] - span[START]) / 1e6 for span in named(window, "core.testbed.build")]
    )
    metrics["core.testbed.builds"] = len(named(counted, "core.testbed.build"))
    metrics["runner.cells.plan_ms"] = per_op_self_ms("runner.cells")
    metrics["runner.merge.render_ms"] = per_op_self_ms("runner.merge")
    metrics["runner.pool.overhead_ms"] = per_op_self_ms("runner.pool.run_cells_outcome")
    metrics["runner.cache.load_ms"] = per_op_self_ms("runner.cache.load")
    metrics["runner.cache.store_ms"] = per_op_self_ms("runner.cache.store")
    metrics["runner.cache.key_ms"] = per_op_self_ms("runner.cache.key", "runner.cache.base")
    loads = named(counted, "runner.cache.load")
    metrics["runner.cache.hits"] = sum(1 for span in loads if span[ATTRS]["hit"])
    metrics["runner.cache.misses"] = sum(1 for span in loads if not span[ATTRS]["hit"])
    metrics["runner.cache.stores"] = len(named(counted, "runner.cache.store"))
    window_loads = named(window, "runner.cache.load")
    metrics["runner.cache.hit_ratio"] = (
        sum(1 for span in window_loads if span[ATTRS]["hit"]) / len(window_loads)
        if window_loads
        else 0.0
    )
    metrics["service.protocol.read_ms"] = per_op_self_ms("service.protocol.read")
    metrics["service.protocol.write_ms"] = per_op_self_ms("service.protocol.write")
    for part in ("canonicalize", "plan", "assemble", "digest"):
        metrics["service.queries.%s_ms" % part] = per_op_self_ms("service.queries.%s" % part)

    batch_roc_ns = {}
    for span in spans:
        if span[NAME] == "runner.pool.run_cells_outcome" and span[PARENT] in by_id:
            batch_roc_ns[span[PARENT]] = span[END] - span[START]
    waits = [
        (span[ATTRS]["resolved"] - span[END] - batch_roc_ns[span[ATTRS]["batch"]]) / 1e6
        for span in named(window, "service.broker.submit")
        if span[ATTRS]["batch"] in batch_roc_ns
    ]
    metrics["service.broker.wait_ms"] = _mean(waits)
    batches = named(window, "service.broker.batch")
    metrics["service.broker.batches"] = len(batches) / window_ops if window_ops else 0.0
    metrics["service.broker.cells_per_batch"] = _mean([span[ATTRS]["cells"] for span in batches])
    metrics["service.broker.coalesced"] = (
        sum(span[ATTRS]["coalesced"] for span in named(window, "service.broker.submit"))
        / window_ops
        if window_ops
        else 0.0
    )
    return metrics


def handler_ms(spans, in_window):
    """Mean duration of the server's connection handlers that served a
    query (``/healthz`` and ``/v1/metrics`` probes excluded)."""
    query_parents = {
        span[PARENT] for span in spans if span[NAME] == "service.server.query"
    }
    return _mean(
        [
            (span[END] - span[START]) / 1e6
            for span in spans
            if span[NAME] == "service.server.handle"
            and span[ID] in query_parents
            and span[END]
            and in_window(span)
        ]
    )


def coverage_problems(workload, spans, in_window):
    """Expected spans (and cell kinds) with zero calls in the window."""
    window = [span for span in spans if in_window(span)]
    seen = {span[NAME] for span in window}
    problems = ["%s: 0 calls" % name for name in EXPECTED[workload] if name not in seen]
    kinds = {
        span[ATTRS]["kind"]
        for span in window
        if span[NAME] == "runner.pool.execute_cell" and span[END] and span[ATTRS]
    }
    problems += [
        "runner.pool.execute_cell[%s]: 0 calls" % kind
        for kind in EXPECTED_KINDS[workload]
        if kind not in kinds
    ]
    return problems


# --- the profile split ----------------------------------------------------

#: profiler entries that are a thread waiting, not working
_IDLE = (
    "<method 'poll' of 'select.epoll' objects>",
    "<method 'acquire' of '_thread.lock' objects>",
    "<built-in method time.sleep>",
)


def package_of(filename):
    marker = "/repro/"
    index = filename.replace("\\", "/").rfind(marker)
    if index < 0:
        return "other"
    head = filename.replace("\\", "/")[index + len(marker):].split("/", 1)[0]
    return head if head in PACKAGES else "other"


def self_pct(stats):
    """``self_pct.<package>`` from a ``pstats.Stats`` (idle waits dropped)."""
    totals = dict.fromkeys(PACKAGES + ("other",), 0.0)
    for (filename, _line, function), row in stats.stats.items():
        if filename == "~" and function in _IDLE:
            continue
        totals[package_of(filename)] += row[2]
    grand = sum(totals.values())
    return {
        "self_pct.%s" % package: 100.0 * value / grand if grand else 0.0
        for package, value in totals.items()
    }
