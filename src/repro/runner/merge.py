"""Deterministic merge: cell payloads back into the suite's shapes.

Cells return plain JSON (so they can live in the cache); this module
*hydrates* those payloads back into the dataclasses and orderings the
reporting layer has always consumed — the merged output of a partially
cached run is byte-identical to the pre-runner serial path
(tests/test_runner_differential.py).

Order guarantees (what makes the merge deterministic):

* every assembler iterates the *canonical* key/config/workload tuples
  (``PLATFORM_ORDER``, ``cells.TCPRR_CONFIGS``, ...) — never the
  dict order of the result map;
* within a Figure 4 column, workload order is the payload's insertion
  order, which every run produces identically (``FIGURE4_WORKLOADS``
  order) because cells are deterministic;
* floats survive the JSON round-trip exactly (shortest-repr encoding),
  so derived values recomputed here (VHE speedups, ablation deltas)
  match the serial computation bit-for-bit.
"""

from repro.core import reporting
from repro.core.breakdown import BreakdownRow, HypercallBreakdown
from repro.core.irqbalance import AblationPoint
from repro.core.netanalysis import TcpRrResult
from repro.core.vhe_projection import VheComparison
from repro.paperdata import PLATFORM_ORDER
from repro.runner import cells
from repro.workloads import WorkloadResult


def _payload(results, spec):
    return results[spec.id].payload


def table2_results(results, keys=None):
    """{key: {microbenchmark: cycles}} — Table II, one column per key."""
    keys = keys or PLATFORM_ORDER
    return {key: dict(_payload(results, cells.micro(key))) for key in keys}


def breakdown_result(results):
    payload = _payload(results, cells.breakdown())
    return HypercallBreakdown(
        rows=[BreakdownRow(**row) for row in payload["rows"]],
        other_cycles=payload["other_cycles"],
        total_cycles=payload["total_cycles"],
    )


def table5_results(results, transactions=cells.DEFAULT_RR_TRANSACTIONS):
    """{config: TcpRrResult} in native/kvm/xen order."""
    return {
        config: TcpRrResult(**_payload(results, cells.tcprr(config, transactions)))
        for config in cells.TCPRR_CONFIGS
    }


def figure4_grid(results, keys=None, irq_vcpus=1):
    """{workload: {key: WorkloadResult}} — ``run_figure4``'s shape."""
    keys = keys or PLATFORM_ORDER
    columns = {
        key: _payload(results, cells.appcol(key, irq_vcpus)) for key in keys
    }
    return {
        workload: {
            key: WorkloadResult(**columns[key][workload]) for key in keys
        }
        for workload in columns[keys[0]]
    }


def ablation_grid(
    results, keys=cells.ABLATION_KEYS, workloads=cells.ABLATION_WORKLOADS
):
    """{(key, workload): AblationPoint} in the serial iteration order."""
    columns = {
        key: _payload(results, cells.ablation(key, workloads)) for key in keys
    }
    return {
        (key, workload): AblationPoint(**columns[key][workload])
        for key in keys
        for workload in workloads
    }


def vhe_comparison(results):
    """Section VI comparison, rebuilt from the shared micro/appcol cells."""
    split = dict(_payload(results, cells.micro(cells.VHE_KEYS[0])))
    vhe = dict(_payload(results, cells.micro(cells.VHE_KEYS[1])))
    microbench = {
        name: (split[name], vhe[name], split[name] / vhe[name]) for name in split
    }
    grid = figure4_grid(results, list(cells.VHE_KEYS))
    applications = {}
    for workload, row in grid.items():
        split_norm = row[cells.VHE_KEYS[0]].normalized
        vhe_norm = row[cells.VHE_KEYS[1]].normalized
        applications[workload] = (
            split_norm,
            vhe_norm,
            (split_norm - vhe_norm) * 100.0,
        )
    return VheComparison(microbench=microbench, applications=applications)


def oversubscription_grid(
    results, keys=None, timeslices_us=cells.OVERSUB_TIMESLICES_US
):
    """{key: [sweep-point payload, ...]} across timeslice lengths."""
    keys = keys or PLATFORM_ORDER
    return {
        key: [
            dict(_payload(results, cells.oversub(key, timeslice)))
            for timeslice in timeslices_us
        ]
        for key in keys
    }


def full_report_text(results, transactions=cells.DEFAULT_RR_TRANSACTIONS):
    """The whole evaluation section, in paper order, from merged cells."""
    return "\n\n".join(
        [
            reporting.render_table2(table2_results(results)),
            reporting.render_table3(breakdown_result(results)),
            reporting.render_table5(table5_results(results, transactions)),
            reporting.render_figure4(figure4_grid(results), PLATFORM_ORDER),
            reporting.render_ablation(ablation_grid(results)),
            reporting.render_vhe(vhe_comparison(results)),
        ]
    )
