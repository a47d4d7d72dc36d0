"""One-call entry points: the whole paper, experiment by experiment.

>>> from repro.core import suite
>>> print(suite.table2_report())          # microbenchmarks, 4 platforms
>>> print(suite.table3_report())          # KVM ARM hypercall breakdown
>>> print(suite.table5_report())          # TCP_RR decomposition
>>> print(suite.figure4_report())         # application benchmarks
>>> print(suite.ablation_report())        # Section V IRQ distribution
>>> print(suite.vhe_report())             # Section VI VHE comparison

Each ``*_report`` renderer has a ``*_data`` twin returning the same
results as JSON-serializable structures (``python -m repro table2
--emit-json out.json`` on the command line).

Every entry point routes through :mod:`repro.runner`: the suite is
sharded into independent cells, deduplicated (Table II and the VHE
comparison share their KVM ARM microbenchmark cell), run in this
process or served from the content-addressed result cache, then merged
back deterministically — the output stays byte-identical to the
pre-runner serial path (the differential test harness holds it to
that).  ``REPRO_CACHE_DIR`` configures the default cache;
``full_report`` also takes ``cache_dir`` directly, and
``python -m repro bench`` exposes the whole grid with per-cell timing.
"""

import dataclasses

from repro import runner
from repro.core import reporting
from repro.paperdata import PLATFORM_ORDER
from repro.runner import cells, merge


def _run(specs):
    return runner.run_plan(specs)


def run_table2(keys=None):
    keys = keys or PLATFORM_ORDER
    return merge.table2_results(_run(cells.table2_cells(keys)), keys)


def table2_report():
    return reporting.render_table2(run_table2())


def table2_data(keys=None):
    return {key: dict(results) for key, results in run_table2(keys).items()}


def _table3_breakdown():
    return merge.breakdown_result(_run(cells.table3_cells()))


def table3_report():
    return reporting.render_table3(_table3_breakdown())


def table3_data():
    breakdown = _table3_breakdown()
    return {
        "rows": [dataclasses.asdict(row) for row in breakdown.rows],
        "save_total": breakdown.save_total,
        "restore_total": breakdown.restore_total,
        "other_cycles": breakdown.other_cycles,
        "total_cycles": breakdown.total_cycles,
    }


def run_table5(transactions=cells.DEFAULT_RR_TRANSACTIONS):
    return merge.table5_results(_run(cells.table5_cells(transactions)), transactions)


def table5_report(transactions=cells.DEFAULT_RR_TRANSACTIONS):
    return reporting.render_table5(run_table5(transactions))


def table5_data(transactions=cells.DEFAULT_RR_TRANSACTIONS):
    return {
        config: result.as_dict() for config, result in run_table5(transactions).items()
    }


def _figure4_grid(keys):
    return merge.figure4_grid(_run(cells.figure4_cells(keys)), keys)


def figure4_report(keys=None):
    keys = keys or PLATFORM_ORDER
    return reporting.render_figure4(_figure4_grid(keys), keys)


def figure4_data(keys=None):
    keys = keys or PLATFORM_ORDER
    return {
        workload: {key: dataclasses.asdict(result) for key, result in row.items()}
        for workload, row in _figure4_grid(keys).items()
    }


def _ablation_grid():
    return merge.ablation_grid(_run(cells.ablation_cells()))


def ablation_report():
    return reporting.render_ablation(_ablation_grid())


def ablation_data():
    return {
        "%s/%s" % (key, workload): dict(
            dataclasses.asdict(point), improvement_pct=point.improvement_pct
        )
        for (key, workload), point in _ablation_grid().items()
    }


def _vhe_comparison():
    return merge.vhe_comparison(_run(cells.vhe_cells()))


def vhe_report():
    return reporting.render_vhe(_vhe_comparison())


def vhe_data():
    comparison = _vhe_comparison()
    return {
        "microbench": {
            name: {"split_cycles": split, "vhe_cycles": vhe, "speedup": speedup}
            for name, (split, vhe, speedup) in comparison.microbench.items()
        },
        "applications": {
            name: {"split_normalized": split, "vhe_normalized": vhe, "improvement_pts": pts}
            for name, (split, vhe, pts) in comparison.applications.items()
        },
    }


def oversubscription_data(keys=None, timeslices_us=cells.OVERSUB_TIMESLICES_US):
    """The consolidation sweep: {key: [per-timeslice point dicts]}."""
    keys = keys or PLATFORM_ORDER
    results = _run(cells.oversubscription_cells(keys, timeslices_us))
    return merge.oversubscription_grid(results, keys, timeslices_us)


def full_report(cache_dir=None):
    """Everything, in paper order — one deduplicated cell-grid run."""
    results = runner.run_plan(cells.full_report_cells(), cache_dir=cache_dir)
    return merge.full_report_text(results)
