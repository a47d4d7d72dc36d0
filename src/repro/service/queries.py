"""The query registry: canonicalization, planning, and reassembly.

A *query* names a report target plus validated parameters and an
optional what-if cost-override document.  Canonicalization is the
coalescing primitive: two requests that mean the same thing — whatever
their key order, parameter defaults spelled out or omitted — reduce to
the same canonical document and therefore the same ``query_key``
(sha256 over compact sorted JSON), the same cell plan, and the same
in-flight futures inside the broker.

Every target's ``assemble`` is the exact ``suite.*_data`` shape the CLI
``--emit-json`` twins produce, built from the same ``runner.merge``
functions — which is what lets the differential harness demand that a
served response is byte-identical (``payload_digest``) to the direct
runner path for the same canonical query.

Cost overrides never leak into the merge layer: cells are *planned* at
their base (default-calibration) identity, *executed* under the
override-carrying twin (:func:`repro.runner.cells.with_cost_overrides`),
and the results re-keyed back to base ids before assembly.
"""

import dataclasses
import hashlib
from collections import OrderedDict

from repro.core.testbed import ALL_KEYS
from repro.errors import ConfigurationError
from repro.hw import costs as hw_costs
from repro.paperdata import PLATFORM_ORDER
from repro.runner import cells, merge, pool, resilience
from repro.service import protocol
from repro.workloads import FIGURE4_WORKLOADS

#: workload names a mix parameter may select from (Figure 4 vocabulary)
WORKLOAD_NAMES = tuple(workload.name for workload in FIGURE4_WORKLOADS)


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


def _positive_int(value, target, name, default):
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
    return value


def _timeslices(value, target):
    if value is None:
        return list(cells.OVERSUB_TIMESLICES_US)
    if not isinstance(value, list) or not value:
        raise ConfigurationError(
            "'timeslices_us' for target %r must be a non-empty list, got %r"
            % (target, value)
        )
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigurationError(
                "'timeslices_us' entries for target %r must be numbers, got %r"
                % (target, item)
            )
        if item <= 0:
            raise ConfigurationError(
                "'timeslices_us' entries for target %r must be > 0, got %r"
                % (target, item)
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


# --- per-target validate/plan/assemble -----------------------------------


def _validate_micro(raw):
    params = _require_mapping(raw, "micro")
    _reject_unknown(params, "micro", ("key",))
    key = params.get("key", "kvm-arm")
    return {"key": _platform_key(key, "micro", ALL_KEYS)}


def _assemble_micro(results, params):
    return dict(results[cells.micro(params["key"]).id].payload)


def _validate_table2(raw):
    params = _require_mapping(raw, "table2")
    _reject_unknown(params, "table2", ("keys",))
    return {"keys": _platform_keys(params.get("keys"), "table2", PLATFORM_ORDER, ALL_KEYS)}


def _assemble_table2(results, params):
    return {
        key: dict(column)
        for key, column in merge.table2_results(results, params["keys"]).items()
    }


def _assemble_table3(results, _params):
    breakdown = merge.breakdown_result(results)
    return {
        "rows": [dataclasses.asdict(row) for row in breakdown.rows],
        "save_total": breakdown.save_total,
        "restore_total": breakdown.restore_total,
        "other_cycles": breakdown.other_cycles,
        "total_cycles": breakdown.total_cycles,
    }


def _validate_table5(raw):
    params = _require_mapping(raw, "table5")
    _reject_unknown(params, "table5", ("transactions",))
    return {
        "transactions": _positive_int(
            params.get("transactions"),
            "table5",
            "transactions",
            cells.DEFAULT_RR_TRANSACTIONS,
        )
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
        "irq_vcpus": _positive_int(params.get("irq_vcpus"), "figure4", "irq_vcpus", 1),
    }


def _assemble_figure4(results, params):
    grid = merge.figure4_grid(results, params["keys"], params["irq_vcpus"])
    return {
        workload: {key: dataclasses.asdict(result) for key, result in row.items()}
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
        "%s/%s" % (key, workload): dict(
            dataclasses.asdict(point), improvement_pct=point.improvement_pct
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


def _validate_report(raw):
    params = _require_mapping(raw, "report")
    _reject_unknown(params, "report", ("transactions",))
    return {
        "transactions": _positive_int(
            params.get("transactions"),
            "report",
            "transactions",
            cells.DEFAULT_RR_TRANSACTIONS,
        )
    }


def _assemble_report(results, params):
    return {"text": merge.full_report_text(results, params["transactions"])}


TARGETS = OrderedDict(
    (target.name, target)
    for target in (
        Target(
            "micro",
            "one platform's microbenchmark column (Table II slice)",
            _validate_micro,
            lambda params: [cells.micro(params["key"])],
            _assemble_micro,
            (("key", "platform key (default kvm-arm)"),),
        ),
        Target(
            "table2",
            "microbenchmarks across platforms (Table II)",
            _validate_table2,
            lambda params: cells.table2_cells(params["keys"]),
            _assemble_table2,
            (("keys", "platform keys (default the four paper platforms)"),),
        ),
        Target(
            "table3",
            "KVM ARM hypercall save/restore attribution (Table III)",
            lambda raw: _no_params(raw, "table3"),
            lambda params: cells.table3_cells(),
            _assemble_table3,
        ),
        Target(
            "table5",
            "TCP_RR latency decomposition (Table V)",
            _validate_table5,
            lambda params: cells.table5_cells(params["transactions"]),
            _assemble_table5,
            (("transactions", "TCP_RR transactions per cell (default 40)"),),
        ),
        Target(
            "figure4",
            "application benchmark grid (Figure 4)",
            _validate_figure4,
            lambda params: cells.figure4_cells(params["keys"], params["irq_vcpus"]),
            _assemble_figure4,
            (
                ("keys", "platform keys (default the four paper platforms)"),
                ("irq_vcpus", "VCPUs receiving device IRQs (default 1)"),
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
        ),
        Target(
            "oversub",
            "oversubscription timeslice sweep",
            _validate_oversub,
            lambda params: cells.oversubscription_cells(
                params["keys"], params["timeslices_us"]
            ),
            _assemble_oversub,
            (
                ("keys", "platform keys (default the four paper platforms)"),
                ("timeslices_us", "timeslice sweep points (default paper grid)"),
            ),
        ),
        Target(
            "report",
            "the whole rendered evaluation section",
            _validate_report,
            lambda params: cells.full_report_cells(params["transactions"]),
            _assemble_report,
            (("transactions", "TCP_RR transactions per Table V cell (default 40)"),),
        ),
    )
)

#: request-level execution knobs — part of the request, never the query key
REQUEST_OPTIONS = ("budget_cells", "deadline_ms")


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
    """Validate one request body; returns ``(Query, options)``.

    ``options`` carries the request-level execution knobs
    (``budget_cells``, ``deadline_ms``) — they shape *how* the query
    runs, not *what* it computes, so they stay out of the query key and
    two requests differing only in a deadline still coalesce.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("query must be a JSON object, got %r" % (payload,))
    known = ("target", "params", "costs") + REQUEST_OPTIONS
    _reject_unknown(payload, "query", known)
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
    options = {
        "budget_cells": _option_int(payload, "budget_cells"),
        "deadline_ms": _option_number(payload, "deadline_ms"),
    }
    return Query(target_name, params, costs), options


def _option_int(payload, name):
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(
            "%r must be an integer >= 1, got %r" % (name, value)
        )
    return value


def _option_number(payload, name):
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
        raise ConfigurationError("%r must be a number > 0, got %r" % (name, value))
    return float(value)


def plan(query):
    """``(base_specs, exec_specs)`` for one canonical query.

    Both lists are deduplicated and pairwise aligned: ``exec_specs[i]``
    is ``base_specs[i]`` with the query's cost overrides embedded (a
    no-op without overrides).  The broker runs the exec identities; the
    merge layer consumes results re-keyed back to base identities.
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
    """The target's deterministic ``*_data`` shape from merged payloads."""
    return TARGETS[query.target].assemble(results_by_base_id, query.params)


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


def run_direct(query, cache=None):
    """The differential twin: the same query straight through the runner.

    Returns ``(result, stats)`` with the same ``result`` object — and
    therefore the same ``payload_digest`` — a served query produces.
    Used by ``python -m repro query --direct`` and the differential
    harness; failures raise
    :class:`~repro.runner.resilience.CellFailure` like any direct run.
    """
    base, execs = plan(query)
    outcome = pool.run_cells_outcome(execs, cache=cache)
    result = assemble(query, rekey(outcome.results, base, execs))
    sources = [outcome.results[spec.id].source for spec in execs]
    stats = {
        "cells": len(execs),
        "coalesced": 0,
        "cached": sum(1 for source in sources if source == "cache"),
        "simulated": sum(1 for source in sources if source == "run"),
    }
    return result, stats


def direct_document(target, params=None, costs=None, cache=None):
    """A full response envelope computed without any server in the path."""
    query, _options = canonicalize(
        {"target": target, "params": params or {}, "costs": costs or {}}
    )
    result, stats = run_direct(query, cache=cache)
    return success_document(query, result, stats)
