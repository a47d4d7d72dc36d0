"""Differential harness: the cell runner vs the serial suite.

The runner's contract is *byte identity*: sharding the report into
cells, running them one by one, or serving them from the
content-addressed cache must never change a single byte of output.
The reference here is the pre-runner serial composition, rebuilt
directly from the core modules (exactly what ``suite.full_report()``
did before the runner existed), plus the golden sha256 anchor from
tests/test_obs_invariance.py.
"""

import hashlib

import pytest

from repro.core import reporting, suite
from repro.core.appbench import run_figure4
from repro.core.breakdown import hypercall_breakdown
from repro.core.irqbalance import run_irq_distribution_ablation
from repro.core.microbench import MicrobenchmarkSuite
from repro.core.netanalysis import run_table5
from repro.core.testbed import build_testbed
from repro.core.vhe_projection import run_vhe_comparison
from repro.paperdata import PLATFORM_ORDER
from repro.runner import ResultCache, cells, run_cells
from repro.runner.merge import full_report_text

from tests.test_obs_invariance import GOLDEN_FULL_REPORT_SHA256


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _serial_full_report():
    """The pre-runner serial path, composed from the core modules."""
    measured = {
        key: MicrobenchmarkSuite(build_testbed(key)).run_all()
        for key in PLATFORM_ORDER
    }
    sections = [
        reporting.render_table2(measured),
        reporting.render_table3(hypercall_breakdown()),
        reporting.render_table5(run_table5()),
        reporting.render_figure4(run_figure4(PLATFORM_ORDER), PLATFORM_ORDER),
        reporting.render_ablation(run_irq_distribution_ablation()),
        reporting.render_vhe(run_vhe_comparison()),
    ]
    return "\n\n".join(sections)


@pytest.fixture(scope="module")
def serial_report():
    return _serial_full_report()


def test_serial_reference_matches_golden(serial_report):
    # Anchors the *reference* itself: if the model changed, this (not a
    # runner bug) is why the differential tests moved.
    assert _sha256(serial_report) == GOLDEN_FULL_REPORT_SHA256


def test_full_report_jobs1_byte_identical(serial_report):
    assert suite.full_report() == serial_report


def test_full_report_cold_then_warm_cache_byte_identical(serial_report, tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = suite.full_report(cache_dir=cache_dir)
    warm = suite.full_report(cache_dir=cache_dir)
    assert cold == serial_report
    assert warm == serial_report


def test_warm_cache_resimulates_zero_cells(tmp_path):
    cache_dir = tmp_path / "cache"
    specs = cells.full_report_cells()
    cold = run_cells(specs, cache=ResultCache(cache_dir))

    warm_cache = ResultCache(cache_dir)
    warm = run_cells(specs, cache=warm_cache)

    assert warm_cache.misses == 0
    assert warm_cache.hits == len(warm)
    assert all(result.source == "cache" for result in warm.values())
    assert all(result.source == "run" for result in cold.values())
    assert full_report_text(warm) == full_report_text(cold)


def test_merge_order_is_request_order_not_completion_order(tmp_path):
    # Feed the grid in reversed order with a warm cache (so "completion"
    # is instant and uniform): the result map must follow request order.
    specs = cells.full_report_cells()
    run_cells(specs, cache=ResultCache(tmp_path))
    reversed_results = run_cells(list(reversed(specs)), cache=ResultCache(tmp_path))
    assert list(reversed_results) == [spec.id for spec in reversed(specs)]
    # ...and the merge still renders the same bytes from it.
    assert full_report_text(reversed_results) == full_report_text(
        run_cells(specs, cache=ResultCache(tmp_path))
    )


def test_shared_cells_deduplicated():
    # Table II and the VHE comparison both need micro[key=kvm-arm]; the
    # full grid must carry it exactly once.
    specs = cells.full_report_cells()
    ids = [spec.id for spec in specs]
    assert len(ids) == len(set(ids))
    assert cells.micro("kvm-arm").id in ids
    assert cells.appcol("kvm-arm").id in ids
