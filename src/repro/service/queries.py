"""The query registry: canonicalization, planning, and reassembly.

A *query* names a report target plus validated parameters and an
optional what-if cost-override document.  Canonicalization is the
coalescing primitive: two requests that mean the same thing — whatever
their key order, parameter defaults spelled out or omitted — reduce to
the same canonical document and therefore the same ``query_key``
(sha256 over compact sorted JSON), the same cell plan, and the same
in-flight futures inside the broker.

The registry is the one place a target is planned and assembled.
``assemble`` builds the JSON a served response carries and the CLI's
``--emit-json`` writes; ``render`` builds the text table the CLI prints
(``python -m repro table2``, ``all``, ...), from the same
``runner.merge`` outputs.  :func:`run_local` plans and runs a target
once for both.  The differential harness demands that a served
response is byte-identical (``payload_digest``) to the direct runner
path for the same canonical query.

Cost overrides never leak into the merge layer: cells are *planned* at
their base (default-calibration) identity, *executed* under the
override-carrying twin (:func:`repro.runner.cells.with_cost_overrides`),
and the results re-keyed back to base ids before assembly.  A twin
carries only the overrides that can move it: its own architecture's
section, cut down for a golden cell to the fields of its committed read
set (:func:`repro.runner.cells.read_set`).  A cell none of the document
touches is the base cell itself, and is shared with default queries.
"""

import dataclasses
import hashlib
import math
from collections import OrderedDict

from repro import runner
from repro.core import reporting
from repro.core.oversubscription import INTERVAL_MS
from repro.core.testbed import ALL_KEYS
from repro.errors import ConfigurationError
from repro.hw import costs as hw_costs
from repro.paperdata import PLATFORM_ORDER
from repro.runner import cells, merge, pool, resilience
from repro.service import protocol
from repro.workloads import FIGURE4_WORKLOADS
from repro.workloads.base import VM_VCPUS

#: workload names a mix parameter may select from (Figure 4 vocabulary)
WORKLOAD_NAMES = tuple(workload.name for workload in FIGURE4_WORKLOADS)
#: the longest oversubscription timeslice: one slice fills the sweep's
#: whole simulated interval (the paper grid tops out at 4000 us)
MAX_TIMESLICE_US = INTERVAL_MS * 1000.0
#: the most sweep points one oversub query may ask for (the paper grid
#: has 4); with every platform key, the largest plan any valid query
#: makes is 5 keys x 8 points = 40 cells
MAX_TIMESLICES = 8


class Query:
    """One canonical what-if query (immutable once built)."""

    __slots__ = ("target", "params", "costs", "key")

    def __init__(self, target, params, costs):
        self.target = target
        self.params = params
        self.costs = costs
        self.key = hashlib.sha256(
            protocol.canonical_json(self.document()).encode("utf-8")
        ).hexdigest()

    def document(self):
        return {"target": self.target, "params": self.params, "costs": self.costs}


@dataclasses.dataclass(frozen=True)
class Target:
    """One queryable report artifact."""

    name: str
    description: str
    #: raw params dict -> canonical params dict (raises ConfigurationError)
    validate: object
    #: canonical params -> [base CellSpec] (pre-override identities)
    plan: object
    #: (results keyed by base cell id, canonical params) -> JSON data
    assemble: object
    #: (results keyed by base cell id, canonical params) -> text table
    #: (None: no CLI command prints the target)
    render: object
    #: parameter names and one-line help, for ``GET /v1/targets``
    param_help: tuple = ()


# --- parameter validators ------------------------------------------------


def _require_mapping(params, target):
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise ConfigurationError(
            "query params for %r must be an object, got %r" % (target, params)
        )
    return dict(params)


def _reject_unknown(params, target, known):
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ConfigurationError(
            "unknown parameter(s) %s for target %r (expected %s)"
            % (unknown, target, sorted(known) or "none")
        )


def _platform_key(value, target, allowed):
    if value not in allowed:
        raise ConfigurationError(
            "unknown platform key %r for target %r (expected one of %s)"
            % (value, target, list(allowed))
        )
    return value


def _platform_keys(value, target, default, allowed):
    if value is None:
        return list(default)
    if not isinstance(value, list) or not value:
        raise ConfigurationError(
            "'keys' for target %r must be a non-empty list, got %r"
            % (target, value)
        )
    seen = set()
    for key in value:
        _platform_key(key, target, allowed)
        if key in seen:
            raise ConfigurationError(
                "duplicate platform key %r for target %r" % (key, target)
            )
        seen.add(key)
    return list(value)


def _positive_int(value, target, name, default, maximum=None):
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            "%r for target %r must be an integer, got %r" % (name, target, value)
        )
    if value < 1:
        raise ConfigurationError(
            "%r for target %r must be >= 1, got %d" % (name, target, value)
        )
    if maximum is not None and value > maximum:
        raise ConfigurationError(
            "%r for target %r must be <= %d, got %d"
            % (name, target, maximum, value)
        )
    return value


def _transactions(raw, target):
    params = _require_mapping(raw, target)
    _reject_unknown(params, target, ("transactions",))
    return {
        "transactions": _positive_int(
            params.get("transactions"),
            target,
            "transactions",
            cells.DEFAULT_RR_TRANSACTIONS,
            cells.MAX_RR_TRANSACTIONS,
        )
    }


def _finite(number):
    """Whether a JSON number is a finite float: not NaN, not infinite,
    and not an integer past the float range."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _timeslices(value, target):
    if value is None:
        return list(cells.OVERSUB_TIMESLICES_US)
    if not isinstance(value, list) or not value:
        raise ConfigurationError(
            "'timeslices_us' for target %r must be a non-empty list, got %r"
            % (target, value)
        )
    if len(value) > MAX_TIMESLICES:
        raise ConfigurationError(
            "'timeslices_us' for target %r holds at most %d entries, got %d"
            % (target, MAX_TIMESLICES, len(value))
        )
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigurationError(
                "'timeslices_us' entries for target %r must be numbers, got %r"
                % (target, item)
            )
        if not (_finite(item) and 0 < item <= MAX_TIMESLICE_US):
            raise ConfigurationError(
                "'timeslices_us' entries for target %r must be in (0, %g], "
                "got %r" % (target, MAX_TIMESLICE_US, item)
            )
        out.append(float(item))
    return out


def _workloads(value, target):
    allowed = list(WORKLOAD_NAMES)
    if value is None:
        return list(cells.ABLATION_WORKLOADS)
    if not isinstance(value, list) or not value:
        raise ConfigurationError(
            "'workloads' for target %r must be a non-empty list, got %r"
            % (target, value)
        )
    for name in value:
        if name not in allowed:
            raise ConfigurationError(
                "unknown workload %r for target %r (expected one of %s)"
                % (name, target, allowed)
            )
    if len(set(value)) != len(value):
        raise ConfigurationError("duplicate workload for target %r" % (target,))
    return list(value)


def _no_params(raw, target):
    params = _require_mapping(raw, target)
    _reject_unknown(params, target, ())
    return {}


# --- per-target validate/plan/assemble/render ----------------------------


def _validate_micro(raw):
    params = _require_mapping(raw, "micro")
    _reject_unknown(params, "micro", ("key",))
    key = params.get("key", "kvm-arm")
    return {"key": _platform_key(key, "micro", ALL_KEYS)}


def _assemble_micro(results, params):
    return dict(results[cells.micro(params["key"]).id].payload)


def _render_micro(results, params):
    column = _assemble_micro(results, params)
    return reporting.render_table(
        ["Microbenchmark", "cycles"],
        [[name, "%d" % cycles] for name, cycles in column.items()],
        title="Microbenchmarks on %s" % params["key"],
    )


def _validate_table2(raw):
    params = _require_mapping(raw, "table2")
    _reject_unknown(params, "table2", ("keys",))
    return {"keys": _platform_keys(params.get("keys"), "table2", PLATFORM_ORDER, ALL_KEYS)}


def _assemble_table2(results, params):
    return {
        key: dict(column)
        for key, column in merge.table2_results(results, params["keys"]).items()
    }


def _fields(record, **extra):
    """A dataclass of scalars as a dict in field order (then ``extra``):
    what ``dataclasses.asdict`` returns, without its per-field deep copy."""
    return dict(vars(record), **extra)


def _assemble_table3(results, _params):
    breakdown = merge.breakdown_result(results)
    return {
        "rows": [_fields(row) for row in breakdown.rows],
        "save_total": breakdown.save_total,
        "restore_total": breakdown.restore_total,
        "other_cycles": breakdown.other_cycles,
        "total_cycles": breakdown.total_cycles,
    }


def _assemble_table5(results, params):
    return {
        config: result.as_dict()
        for config, result in merge.table5_results(
            results, params["transactions"]
        ).items()
    }


def _validate_figure4(raw):
    params = _require_mapping(raw, "figure4")
    _reject_unknown(params, "figure4", ("keys", "irq_vcpus"))
    return {
        "keys": _platform_keys(params.get("keys"), "figure4", PLATFORM_ORDER, ALL_KEYS),
        # past the VM's VCPUs every value simulates the same spread
        "irq_vcpus": _positive_int(
            params.get("irq_vcpus"), "figure4", "irq_vcpus", 1, VM_VCPUS
        ),
    }


def _assemble_figure4(results, params):
    grid = merge.figure4_grid(results, params["keys"], params["irq_vcpus"])
    return {
        workload: {key: _fields(result) for key, result in row.items()}
        for workload, row in grid.items()
    }


def _validate_ablation(raw):
    params = _require_mapping(raw, "ablation")
    _reject_unknown(params, "ablation", ("keys", "workloads"))
    return {
        "keys": _platform_keys(
            params.get("keys"), "ablation", cells.ABLATION_KEYS, ALL_KEYS
        ),
        "workloads": _workloads(params.get("workloads"), "ablation"),
    }


def _assemble_ablation(results, params):
    grid = merge.ablation_grid(results, params["keys"], params["workloads"])
    return {
        "%s/%s" % (key, workload): _fields(
            point, improvement_pct=point.improvement_pct
        )
        for (key, workload), point in grid.items()
    }


def _assemble_vhe(results, _params):
    comparison = merge.vhe_comparison(results)
    return {
        "microbench": {
            name: {"split_cycles": split, "vhe_cycles": vhe, "speedup": speedup}
            for name, (split, vhe, speedup) in comparison.microbench.items()
        },
        "applications": {
            name: {
                "split_normalized": split,
                "vhe_normalized": vhe,
                "improvement_pts": pts,
            }
            for name, (split, vhe, pts) in comparison.applications.items()
        },
    }


def _validate_oversub(raw):
    params = _require_mapping(raw, "oversub")
    _reject_unknown(params, "oversub", ("keys", "timeslices_us"))
    return {
        "keys": _platform_keys(params.get("keys"), "oversub", PLATFORM_ORDER, ALL_KEYS),
        "timeslices_us": _timeslices(params.get("timeslices_us"), "oversub"),
    }


def _assemble_oversub(results, params):
    return merge.oversubscription_grid(
        results, params["keys"], params["timeslices_us"]
    )


def _render_report(results, params):
    return merge.full_report_text(results, params["transactions"])


def _assemble_report(results, params):
    return {"text": _render_report(results, params)}


TARGETS = OrderedDict(
    (target.name, target)
    for target in (
        Target(
            "micro",
            "one platform's microbenchmark column (Table II slice)",
            _validate_micro,
            lambda params: [cells.micro(params["key"])],
            _assemble_micro,
            _render_micro,
            (("key", "platform key (default kvm-arm)"),),
        ),
        Target(
            "table2",
            "microbenchmarks across platforms (Table II)",
            _validate_table2,
            lambda params: cells.table2_cells(params["keys"]),
            _assemble_table2,
            lambda results, params: reporting.render_table2(
                merge.table2_results(results, params["keys"])
            ),
            (("keys", "platform keys (default the four paper platforms)"),),
        ),
        Target(
            "table3",
            "KVM ARM hypercall save/restore attribution (Table III)",
            lambda raw: _no_params(raw, "table3"),
            lambda params: cells.table3_cells(),
            _assemble_table3,
            lambda results, params: reporting.render_table3(
                merge.breakdown_result(results)
            ),
        ),
        Target(
            "table5",
            "TCP_RR latency decomposition (Table V)",
            lambda raw: _transactions(raw, "table5"),
            lambda params: cells.table5_cells(params["transactions"]),
            _assemble_table5,
            lambda results, params: reporting.render_table5(
                merge.table5_results(results, params["transactions"])
            ),
            (
                (
                    "transactions",
                    "TCP_RR transactions per cell (default 40, at most 256)",
                ),
            ),
        ),
        Target(
            "figure4",
            "application benchmark grid (Figure 4)",
            _validate_figure4,
            lambda params: cells.figure4_cells(params["keys"], params["irq_vcpus"]),
            _assemble_figure4,
            lambda results, params: reporting.render_figure4(
                merge.figure4_grid(results, params["keys"], params["irq_vcpus"]),
                params["keys"],
            ),
            (
                ("keys", "platform keys (default the four paper platforms)"),
                (
                    "irq_vcpus",
                    "VCPUs receiving device IRQs (default 1, at most %d)" % VM_VCPUS,
                ),
            ),
        ),
        Target(
            "ablation",
            "Section V IRQ-distribution ablation grid",
            _validate_ablation,
            lambda params: cells.ablation_cells(
                params["keys"], params["workloads"]
            ),
            _assemble_ablation,
            lambda results, params: reporting.render_ablation(
                merge.ablation_grid(results, params["keys"], params["workloads"])
            ),
            (
                ("keys", "platform keys (default kvm-arm, xen-arm)"),
                ("workloads", "workload mix (default Apache, Memcached)"),
            ),
        ),
        Target(
            "vhe",
            "Section VI split-mode vs VHE comparison",
            lambda raw: _no_params(raw, "vhe"),
            lambda params: cells.vhe_cells(),
            _assemble_vhe,
            lambda results, params: reporting.render_vhe(
                merge.vhe_comparison(results)
            ),
        ),
        Target(
            "oversub",
            "oversubscription timeslice sweep",
            _validate_oversub,
            lambda params: cells.oversubscription_cells(
                params["keys"], params["timeslices_us"]
            ),
            _assemble_oversub,
            None,
            (
                ("keys", "platform keys (default the four paper platforms)"),
                ("timeslices_us", "timeslice sweep points (default paper grid)"),
            ),
        ),
        Target(
            "report",
            "the whole rendered evaluation section",
            lambda raw: _transactions(raw, "report"),
            lambda params: cells.full_report_cells(params["transactions"]),
            _assemble_report,
            _render_report,
            (
                (
                    "transactions",
                    "TCP_RR transactions per Table V cell (default 40, at most 256)",
                ),
            ),
        ),
    )
)

def describe_targets():
    """``GET /v1/targets`` payload: the queryable vocabulary."""
    return [
        {
            "name": target.name,
            "description": target.description,
            "params": [
                {"name": name, "help": help_text}
                for name, help_text in target.param_help
            ],
        }
        for target in TARGETS.values()
    ]


def canonicalize(payload):
    """Validate one request body, exactly ``{target, params, costs}``;
    returns its :class:`Query`."""
    if not isinstance(payload, dict):
        raise ConfigurationError("query must be a JSON object, got %r" % (payload,))
    _reject_unknown(payload, "query", ("target", "params", "costs"))
    target_name = payload.get("target")
    if not isinstance(target_name, str) or not target_name:
        raise ConfigurationError("query is missing a 'target' name")
    target = TARGETS.get(target_name)
    if target is None:
        raise ConfigurationError(
            "unknown target %r (expected one of %s)"
            % (target_name, list(TARGETS))
        )
    params = target.validate(payload.get("params"))
    costs = hw_costs.validate_overrides(payload.get("costs") or {})
    return Query(target_name, params, costs)


def plan(query):
    """``(base_specs, exec_specs)`` for one canonical query.

    Both lists are deduplicated and pairwise aligned: ``exec_specs[i]``
    is ``base_specs[i]`` with the query's cost overrides that the cell
    reads embedded (a no-op when there are none).  The broker
    runs the exec identities; the merge layer consumes results re-keyed
    back to base identities.
    """
    base = cells.dedupe(TARGETS[query.target].plan(query.params))
    execs = [cells.with_cost_overrides(spec, query.costs) for spec in base]
    return base, execs


def rekey(results, base_specs, exec_specs):
    """Map exec-identity results back onto base cell ids for the merge."""
    return {
        base.id: results[exec_spec.id]
        for base, exec_spec in zip(base_specs, exec_specs)
    }


def assemble(query, results_by_base_id):
    """The target's deterministic JSON result from merged payloads."""
    return TARGETS[query.target].assemble(results_by_base_id, query.params)


def render(query, results_by_base_id):
    """The target's text table from the same merged payloads."""
    target = TARGETS[query.target]
    if target.render is None:
        raise ConfigurationError("target %r has no text form" % (query.target,))
    return target.render(results_by_base_id, query.params)


def success_document(query, result, stats):
    """The success envelope; ``result_sha256`` is the differential gate."""
    return {
        "schema": protocol.SCHEMA,
        "ok": True,
        "partial": False,
        "target": query.target,
        "params": query.params,
        "costs": query.costs,
        "query_key": query.key,
        "result": result,
        "result_sha256": resilience.payload_digest(result),
        "stats": stats,
    }


def query_stats(cells_count, coalesced, sources):
    """A success document's ``stats`` (:data:`protocol.STAT_FIELDS`):
    ``sources`` holds the ``source`` of each cell the query answered
    itself, the ones not joined in flight."""
    counts = (cells_count, coalesced, sources.count("cache"), sources.count("run"))
    return dict(zip(protocol.STAT_FIELDS, counts))


def run_direct(query, cache=None):
    """The differential twin: the same query straight through the runner.

    Returns ``(result, stats)`` with the same ``result`` object — and
    therefore the same ``payload_digest`` — a served query produces.
    Used by ``python -m repro query --direct`` and the differential
    harness; failures raise
    :class:`~repro.runner.resilience.CellFailure` like any direct run.
    """
    base, execs = plan(query)
    results = pool.run_cells(execs, cache=cache)
    result = assemble(query, rekey(results, base, execs))
    sources = [results[spec.id].source for spec in execs]
    return result, query_stats(len(execs), 0, sources)


def run_local(target, params=None, cache_dir=None):
    """``(query, results by base cell id)`` for one default-cost target,
    run once through :func:`repro.runner.run_plan` (so ``cache_dir`` or
    ``REPRO_CACHE_DIR`` applies) for :func:`render` and :func:`assemble`."""
    query = canonicalize({"target": target, "params": params or {}})
    base, execs = plan(query)
    return query, rekey(runner.run_plan(execs, cache_dir), base, execs)


def direct_document(target, params=None, costs=None, cache=None):
    """A full response envelope computed without any server in the path."""
    query = canonicalize(
        {"target": target, "params": params or {}, "costs": costs or {}}
    )
    result, stats = run_direct(query, cache=cache)
    return success_document(query, result, stats)
