"""The runner's failure model: a cell fails once, or the cache heals.

A cell that raises is not retried — the simulator is deterministic, so
a second attempt would raise again.  ``run_cells_outcome`` finishes the
other cells and returns the failure next to them; ``run_cells`` raises
a structured :class:`CellFailure`.  A corrupt cache entry is a miss:
the cell is re-simulated and its store overwrites the entry, so a
poisoned cache costs time, never bytes.
"""

import json

import pytest

from repro.runner import ResultCache, cells, run_cells, run_cells_outcome
from repro.runner.resilience import CellFailure, FailedCell


#: a cheap three-cell grid (sub-second each)
CHEAP = [
    cells.micro("kvm-arm"),
    cells.breakdown(),
    cells.tcprr("native", transactions=3),
]
TARGET = CHEAP[0].id  # the cell the failure tests break


def _payloads(outcome):
    return {cell_id: result.payload for cell_id, result in outcome.results.items()}


def _count(outcome, name):
    return outcome.metrics.get("runner.cell.%s" % name).value


def _entry_path(cache, spec):
    key = cache.key_for(spec)
    return cache.directory / key[:2] / (key + ".json")


def _cache_files(cache):
    return sorted(
        path.relative_to(cache.directory).as_posix()
        for path in cache.directory.rglob("*")
        if path.is_file()
    )


def _assert_healed(cache, specs):
    """Each entry verifies, and the cache holds exactly those entries."""
    fresh = ResultCache(cache.directory)
    for spec in specs:
        assert fresh.load(fresh.key_for(spec)) is not None, spec.id
    assert fresh.hits == len(specs)
    expected = {
        _entry_path(cache, spec).relative_to(cache.directory).as_posix()
        for spec in specs
    }
    assert _cache_files(cache) == sorted(expected)


@pytest.fixture(scope="module")
def golden():
    """Failure-free payloads for the cheap grid (the byte-identity anchor)."""
    return _payloads(run_cells_outcome(CHEAP))


@pytest.fixture
def doomed(monkeypatch):
    """Make every execution of ``TARGET`` raise; returns the call log."""
    calls = []
    real_run_cell = cells.run_cell

    def run_cell(spec):
        calls.append(spec.id)
        if spec.id == TARGET:
            raise RuntimeError("injected failure")
        return real_run_cell(spec)

    monkeypatch.setattr(cells, "run_cell", run_cell)
    return calls


class TestPoisonedCache:
    def test_poisoned_entry_resimulated_then_healed(self, golden, tmp_path):
        cache_dir = tmp_path / "cache"
        cold_cache = ResultCache(cache_dir)
        cold = run_cells_outcome(CHEAP, cache=cold_cache)
        assert _payloads(cold) == golden
        _entry_path(cold_cache, CHEAP[0]).write_bytes(b"\x00poisoned")

        warm_cache = ResultCache(cache_dir)
        warm = run_cells_outcome(CHEAP, cache=warm_cache)
        assert _payloads(warm) == golden
        assert warm_cache.hits == len(CHEAP) - 1
        assert warm_cache.misses == 1
        assert warm.results[TARGET].source == "run"  # re-simulated

        # the re-store healed the entry in place: a third run is all hits
        _assert_healed(warm_cache, CHEAP)
        healed = run_cells_outcome(CHEAP, cache=ResultCache(cache_dir))
        assert _payloads(healed) == golden
        assert all(result.source == "cache" for result in healed.results.values())

    def test_hash_mismatch_entry_resimulated_then_healed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = CHEAP[1]
        golden = run_cells_outcome([spec], cache=cache).results[spec.id].payload
        path = _entry_path(cache, spec)
        entry = json.loads(path.read_text())
        entry["payload"]["total_cycles"] = 1  # tamper, keep valid JSON
        path.write_text(json.dumps(entry))

        fresh = ResultCache(tmp_path / "cache")
        outcome = run_cells_outcome([spec], cache=fresh)
        assert outcome.results[spec.id].source == "run"
        assert outcome.results[spec.id].payload == golden
        assert fresh.misses == 1
        _assert_healed(cache, [spec])


class TestDegradationLadder:
    def test_unrecoverable_cell_aborts_with_structured_report(self, doomed):
        with pytest.raises(CellFailure) as excinfo:
            run_cells(CHEAP)
        (failed,) = excinfo.value.failed_cells
        assert failed.cell_id == TARGET
        assert failed.kind == "micro"
        # exactly one run: nothing is retried
        assert doomed.count(TARGET) == 1
        assert "RuntimeError: injected failure" in failed.error
        assert "injected failure" in failed.traceback
        report = excinfo.value.report_text()
        assert "%s: RuntimeError: injected failure" % TARGET in report

    def test_outcome_keeps_survivors_run_cells_raises(self, golden, doomed):
        outcome = run_cells_outcome(CHEAP)
        assert TARGET not in outcome.results
        survivors = {spec.id for spec in CHEAP} - {TARGET}
        assert set(outcome.results) == survivors
        for cell_id in survivors:
            assert outcome.results[cell_id].payload == golden[cell_id]
        (failure,) = outcome.failures
        assert isinstance(failure, FailedCell)
        assert failure.cell_id == TARGET
        assert _count(outcome, "failed") == 1
        assert doomed.count(TARGET) == 1

        # run_cells runs the same pass and raises with that one failure
        with pytest.raises(CellFailure) as excinfo:
            run_cells(CHEAP)
        (failed,) = excinfo.value.failed_cells
        assert failed == failure
        assert doomed.count(TARGET) == 2

    def test_nonretryable_error_fails_fast(self):
        # a bad cell kind fails on its one and only run
        bad = cells.CellSpec("no-such-kind")
        with pytest.raises(CellFailure) as excinfo:
            run_cells([bad])
        (failed,) = excinfo.value.failed_cells
        assert "ConfigurationError" in failed.error
