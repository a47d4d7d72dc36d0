"""Cell execution: in process, or straight out of the cache.

Cells are self-contained and deterministic (see
:mod:`repro.runner.cells`), so the runner needs no shared state and no
ordering beyond the request: ``run_cells`` always returns results keyed
and ordered by the *request* order — the deterministic-merge guarantee
the differential tests hold the runner to.

Everything runs in this process, one cell after another.  The whole
bench grid (the paper report plus the oversubscription sweep) is 32
cells of at most ~20 ms each, far below what a spawn pool costs to
start (DESIGN.md "Runner" has the measurement).

**Failure model** (DESIGN.md "Runner"): a cell that raises fails once.
It is never retried — the model is deterministic, so a second attempt
would raise again.  ``run_cells_outcome`` records it as a
:class:`~repro.runner.resilience.FailedCell` and runs the rest of the
cells; ``run_cells`` then raises a structured
:class:`~repro.runner.resilience.CellFailure` naming every failed cell.
Every result executed is stored in the cache as soon as it exists, so
rerunning a failed or interrupted run on the same cache only simulates
what is missing.

Per-cell accounting goes through a :class:`repro.obs.MetricsRegistry`:
``runner.cell.engines`` and ``runner.cell.simulated_cycles`` count the
discrete-event engines a cell built and the cycles they simulated (via
``Engine.created_hook``) — recorded even for *failed* cells, so a
failure report still says how far the cell got — and
``runner.cell.wall_ms`` is host wall time, the one place in the tree
where a wall clock is legitimate, because it measures the *runner*,
never the model.  Run-wide counters: ``runner.cell.failed`` and
``runner.cache.write_error``.
"""

import dataclasses
import json
import threading
import time
import traceback
from collections import OrderedDict

from repro.obs import MetricsRegistry
from repro.runner import cells, resilience
from repro.runner.resilience import CellExecutionError, FailedCell
from repro.sim.engine import Engine

#: every run-wide counter the runner maintains (pre-registered so a
#: clean run still reports explicit zeros)
RUNNER_COUNTERS = (
    "runner.cell.failed",
    "runner.cache.write_error",
)

#: serializes in-process cell execution across threads.  The service
#: broker executes batches on its own thread while other code (tests, a
#: --direct CLI query) may run cells on the main thread; the
#: ``Engine.created_hook`` accounting seam is process-global, so two
#: concurrent executions would cross-record their engines.
_EXECUTE_LOCK = threading.Lock()


#: where a :class:`CellResult` came from: simulated in process, or read
#: from the cache (the bench document's ``source`` column)
SOURCES = ("run", "cache")


@dataclasses.dataclass
class CellResult:
    """One cell's payload plus where it came from and what it cost."""

    spec: cells.CellSpec
    payload: object
    wall_ms: float
    simulated_cycles: int
    engines: int
    source: str  # one of SOURCES
    payload_sha256: str = ""
    #: always empty (there is no fast lane: the interpreter is the only
    #: path); kept because callers outside the runner read it
    fastpath: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class RunOutcome:
    """Everything one ``run_cells_outcome`` call produced.

    ``results`` holds the successful cells in request order;
    ``failures`` the cells that raised; ``misses`` the cells a
    cache-only pass (``simulate=False``) found no entry for, in request
    order; ``metrics`` the run-wide counters.
    """

    results: "OrderedDict"
    failures: list
    metrics: MetricsRegistry
    misses: list = dataclasses.field(default_factory=list)


def execute_cell(spec):
    """Run one cell in this process, with engine/wall accounting.

    On failure, raises :class:`~repro.runner.resilience.CellExecutionError`
    carrying the traceback *and* the partial engine/cycle counts
    accumulated before the error — the hook is restored either way.
    """
    created = []
    with _EXECUTE_LOCK:
        previous_hook = Engine.created_hook
        Engine.created_hook = created.append
        start = time.perf_counter()
        try:
            payload = cells.run_cell(spec)
        except Exception as exc:
            raise CellExecutionError(
                spec.id,
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
                engines=len(created),
                simulated_cycles=sum(engine.now for engine in created),
            ) from exc
        finally:
            Engine.created_hook = previous_hook
    metrics = MetricsRegistry()
    metrics.counter("runner.cell.engines").inc(len(created))
    metrics.counter("runner.cell.simulated_cycles").inc(
        sum(engine.now for engine in created)
    )
    metrics.gauge("runner.cell.wall_ms").set((time.perf_counter() - start) * 1000.0)
    # Round-trip through JSON so a freshly simulated payload is
    # structurally identical to one loaded from the cache.
    payload = json.loads(json.dumps(payload))
    return CellResult(
        spec=spec,
        payload=payload,
        wall_ms=metrics.get("runner.cell.wall_ms").value,
        simulated_cycles=metrics.get("runner.cell.simulated_cycles").value,
        engines=metrics.get("runner.cell.engines").value,
        source="run",
        payload_sha256=resilience.payload_digest(payload),
    )


def _from_cache(spec, entry):
    stats = entry["stats"]
    return CellResult(
        spec=spec,
        payload=entry["payload"],
        wall_ms=0.0,  # a hit costs no simulation time
        simulated_cycles=stats.get("simulated_cycles", 0),
        engines=stats.get("engines", 0),
        source="cache",
        payload_sha256=entry.get("payload_sha256", ""),
    )


def run_cells_outcome(specs, cache=None, metrics=None, simulate=True, load=True):
    """Plan, load or run, store: one pass over the deduplicated cells.

    Each cell is served from ``cache`` when a verified entry exists,
    otherwise executed in process and stored immediately — never after
    the run, so a later failure cannot lose it.  The result dict is in
    (deduplicated) request order.  A cell that raises is recorded in
    ``failures`` and the pass goes on, so one failing cell never costs
    the others (the broker's batches mix unrelated queries' cells).

    With ``simulate=False`` the pass only reads the cache: a cell
    without an entry is listed in ``misses`` instead of executed (the
    service answers hits this way on its event-loop thread).  With
    ``load=False`` it reads no entry and executes and stores every cell
    (the service's worker runs only cells such a pass just missed).
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    for name in RUNNER_COUNTERS:
        metrics.counter(name)
    ordered = cells.dedupe(specs)
    results = OrderedDict()
    failures = []
    misses = []
    base = cache.base_fingerprint() if cache is not None else None
    write_errors_before = cache.write_errors if cache is not None else 0
    for spec in ordered:
        key = None
        if cache is not None:
            key = cache.key_for(spec, base)
            entry = cache.load(key) if load else None
            if entry is not None:
                results[spec.id] = _from_cache(spec, entry)
                continue
        if not simulate:
            misses.append(spec)
            continue
        try:
            result = execute_cell(spec)
        except CellExecutionError as exc:
            failures.append(FailedCell.from_execution_error(spec, exc))
            metrics.counter("runner.cell.failed").inc()
            continue
        results[spec.id] = result
        if cache is not None:
            cache.store(key, result)
    if cache is not None:
        metrics.counter("runner.cache.write_error").inc(
            cache.write_errors - write_errors_before
        )
    return RunOutcome(
        results=results, failures=failures, metrics=metrics, misses=misses
    )


def run_cells(specs, cache=None):
    """The request-ordered result map; raises
    :class:`~repro.runner.resilience.CellFailure` if any cell failed."""
    outcome = run_cells_outcome(specs, cache=cache)
    if outcome.failures:
        raise resilience.CellFailure(outcome.failures)
    return outcome.results
