"""The runner's failure model: a cell fails once, or the cache heals.

A cell that raises is not retried — the simulator is deterministic, so
a second attempt would raise again.  The run either aborts with a
structured :class:`CellFailure` or, under ``keep_going``, finishes
without the cell.  A corrupt cache entry is quarantined and the cell is
re-simulated, so a poisoned cache costs time, never bytes.
"""

import json

import pytest

from repro.runner import ResultCache, cells, run_cells_outcome
from repro.runner.resilience import CellFailure


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
    group = "cache" if name == "quarantined" else "cell"
    return outcome.metrics.get("runner.%s.%s" % (group, name)).value


def _entry_path(cache, spec):
    key = cache.key_for(spec)
    return cache.directory / key[:2] / (key + ".json")


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


class TestPoisonedCacheQuarantine:
    def test_poisoned_entry_quarantined_and_resimulated(self, golden, tmp_path):
        cache_dir = tmp_path / "cache"
        cold_cache = ResultCache(cache_dir)
        cold = run_cells_outcome(CHEAP, cache=cold_cache)
        assert _payloads(cold) == golden
        assert _count(cold, "quarantined") == 0
        _entry_path(cold_cache, CHEAP[0]).write_bytes(b"\x00poisoned")

        warm_cache = ResultCache(cache_dir)
        warm = run_cells_outcome(CHEAP, cache=warm_cache)
        assert _payloads(warm) == golden
        assert _count(warm, "quarantined") == 1
        assert warm_cache.quarantined == 1
        assert warm_cache.hits == len(CHEAP) - 1
        assert warm.results[TARGET].source == "run"  # re-simulated

        # evidence survives: the bad entry plus a reason file
        quarantine = warm_cache.quarantine_path()
        entries = sorted(path.name for path in quarantine.iterdir())
        assert len(entries) == 2
        assert any(name.endswith(".reason") for name in entries)
        reason = next(quarantine.glob("*.reason")).read_text()
        assert "unparseable JSON" in reason

        # the re-store healed the cache: a third run is all hits
        healed_cache = ResultCache(cache_dir)
        healed = run_cells_outcome(CHEAP, cache=healed_cache)
        assert _payloads(healed) == golden
        assert healed_cache.hits == len(CHEAP)
        assert _count(healed, "quarantined") == 0

    def test_hash_mismatch_entry_quarantined_with_reason(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = CHEAP[1]
        run_cells_outcome([spec], cache=cache)
        path = _entry_path(cache, spec)
        entry = json.loads(path.read_text())
        entry["payload"]["total_cycles"] = 1  # tamper, keep valid JSON
        path.write_text(json.dumps(entry))

        fresh = ResultCache(tmp_path / "cache")
        outcome = run_cells_outcome([spec], cache=fresh)
        assert outcome.results[spec.id].source == "run"
        assert fresh.quarantined == 1
        reason = next(fresh.quarantine_path().glob("*.reason")).read_text()
        assert "payload hash mismatch" in reason


class TestDegradationLadder:
    def test_unrecoverable_cell_aborts_with_structured_report(self, doomed):
        with pytest.raises(CellFailure) as excinfo:
            run_cells_outcome(CHEAP)
        (failed,) = excinfo.value.failed_cells
        assert failed.cell_id == TARGET
        assert failed.kind == "micro"
        # exactly one run: nothing is retried
        assert doomed.count(TARGET) == 1
        assert "RuntimeError: injected failure" in failed.error
        assert "injected failure" in failed.traceback
        report = excinfo.value.report_text()
        assert "%s: RuntimeError: injected failure" % TARGET in report

    def test_keep_going_completes_without_the_failed_cell(self, golden, doomed):
        outcome = run_cells_outcome(CHEAP, keep_going=True)
        assert TARGET not in outcome.results
        survivors = {spec.id for spec in CHEAP} - {TARGET}
        assert set(outcome.results) == survivors
        for cell_id in survivors:
            assert outcome.results[cell_id].payload == golden[cell_id]
        assert len(outcome.failures) == 1
        assert outcome.failures[0].cell_id == TARGET
        assert _count(outcome, "failed") == 1
        assert doomed.count(TARGET) == 1

    def test_nonretryable_error_fails_fast(self):
        # a bad cell kind fails on its one and only run
        bad = cells.CellSpec("no-such-kind")
        with pytest.raises(CellFailure) as excinfo:
            run_cells_outcome([bad])
        (failed,) = excinfo.value.failed_cells
        assert "ConfigurationError" in failed.error
