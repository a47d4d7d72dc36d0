"""Cache-key derivation and invalidation for the suite result cache.

The content address must move whenever anything that can change a cell
payload moves (live cost-table values, cell parameters, model source),
and a poisoned or corrupt cache entry must degrade to a miss — never a
crash, never a stale hit.
"""

import dataclasses
import enum
import json
import os

import pytest

from repro.hw import costs as hw_costs
from repro.runner import ResultCache, cells, run_cells
from repro.runner.cache import CACHE_SCHEMA, QUARANTINE_DIR, live_costs


MICRO = cells.micro("kvm-arm")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestKeyDerivation:
    def test_key_is_stable(self, cache):
        assert cache.key_for(MICRO) == cache.key_for(MICRO)

    def test_cell_kind_and_params_differentiate(self, cache):
        keys = {
            cache.key_for(spec)
            for spec in [
                MICRO,
                cells.micro("xen-arm"),
                cells.breakdown(),
                cells.tcprr("kvm"),
                cells.tcprr("kvm", transactions=41),
                cells.appcol("kvm-arm"),
                cells.appcol("kvm-arm", irq_vcpus=4),
                cells.ablation("kvm-arm", ["Apache"]),
                cells.oversub("kvm-arm", 100.0),
            ]
        }
        assert len(keys) == 9

    def test_mutating_a_cost_value_changes_every_key(self, cache, monkeypatch):
        before = cache.key_for(MICRO)
        original = hw_costs.arm_costs

        def mutated():
            costs = original()
            costs.trap_to_el2 += 1
            return costs

        monkeypatch.setattr(hw_costs, "arm_costs", mutated)
        assert cache.key_for(MICRO) != before

    def test_mutating_x86_costs_changes_keys_too(self, cache, monkeypatch):
        before = cache.key_for(cells.micro("kvm-x86"))
        original = hw_costs.x86_costs

        def mutated():
            costs = original()
            costs.vmexit_hw += 1
            return costs

        monkeypatch.setattr(hw_costs, "x86_costs", mutated)
        assert cache.key_for(cells.micro("kvm-x86")) != before


def _asdict_canonical(value):
    """The recursive ``asdict`` serializer ``live_costs`` once used."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _asdict_canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _asdict_canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_asdict_canonical(item) for item in value]
    if isinstance(value, enum.Enum):
        return str(value)
    return value


@pytest.mark.parametrize(
    "document",
    [None, {"arm": {"save.VGIC": 7, "trap_to_el2": 9}, "x86": {"vmexit_hw": 11}}],
    ids=["default", "overridden"],
)
def test_live_costs_document_is_the_asdict_form(document):
    with hw_costs.overriding(document):
        expected = {
            "arm": _asdict_canonical(hw_costs.arm_costs()),
            "x86": _asdict_canonical(hw_costs.x86_costs()),
        }
        assert json.dumps(live_costs(), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        assert live_costs() == expected


class TestInvalidation:
    def test_cost_mutation_forces_resimulation(self, cache, monkeypatch):
        warm = run_cells([MICRO], cache=cache)
        assert warm[MICRO.id].source == "run"
        assert run_cells([MICRO], cache=cache)[MICRO.id].source == "cache"

        original = hw_costs.arm_costs

        def mutated():
            costs = original()
            costs.trap_to_el2 += 1
            return costs

        monkeypatch.setattr(hw_costs, "arm_costs", mutated)
        # Note: only the *key* sees the mutation (the testbed binds the
        # cost factory at import); the point is that the old entry can
        # no longer satisfy the lookup.
        resimulated = run_cells([MICRO], cache=cache)
        assert resimulated[MICRO.id].source == "run"

    def test_changed_cell_parameter_misses(self, cache):
        run_cells([cells.tcprr("native", transactions=3)], cache=cache)
        spec = cells.tcprr("native", transactions=4)
        assert run_cells([spec], cache=cache)[spec.id].source == "run"


class TestPoisonedEntries:
    def _entry_path(self, cache):
        key = cache.key_for(MICRO)
        return key, cache.directory / key[:2] / (key + ".json")

    def test_truncated_json_is_a_miss_not_a_crash(self, cache):
        baseline = run_cells([MICRO], cache=cache)
        key, path = self._entry_path(cache)
        path.write_text('{"schema": "%s", "key": "%s", "payl' % (CACHE_SCHEMA, key))
        poisoned_cache = ResultCache(cache.directory)
        result = run_cells([MICRO], cache=poisoned_cache)
        assert result[MICRO.id].source == "run"
        assert result[MICRO.id].payload == baseline[MICRO.id].payload
        assert poisoned_cache.misses == 1

    def test_garbage_bytes_are_a_miss(self, cache):
        run_cells([MICRO], cache=cache)
        _key, path = self._entry_path(cache)
        path.write_bytes(b"\x00\xffnot json at all")
        assert run_cells([MICRO], cache=cache)[MICRO.id].source == "run"

    def test_key_mismatch_inside_entry_is_a_miss(self, cache):
        run_cells([MICRO], cache=cache)
        key, path = self._entry_path(cache)
        entry = json.loads(path.read_text())
        entry["key"] = "0" * len(key)
        path.write_text(json.dumps(entry))
        assert run_cells([MICRO], cache=cache)[MICRO.id].source == "run"

    def test_wrong_schema_tag_is_a_miss(self, cache):
        run_cells([MICRO], cache=cache)
        _key, path = self._entry_path(cache)
        entry = json.loads(path.read_text())
        entry["schema"] = "repro-runner-cache/0"
        path.write_text(json.dumps(entry))
        assert run_cells([MICRO], cache=cache)[MICRO.id].source == "run"

    def test_missing_payload_is_a_miss(self, cache):
        run_cells([MICRO], cache=cache)
        _key, path = self._entry_path(cache)
        entry = json.loads(path.read_text())
        del entry["payload"]
        path.write_text(json.dumps(entry))
        assert run_cells([MICRO], cache=cache)[MICRO.id].source == "run"


class TestQuarantine:
    """Corrupt entries are moved aside with a reason, not deleted."""

    def _poison(self, cache, payload_bytes):
        run_cells([MICRO], cache=cache)
        key = cache.key_for(MICRO)
        path = cache.directory / key[:2] / (key + ".json")
        path.write_bytes(payload_bytes)
        return key, path

    def test_garbage_entry_is_quarantined_with_reason_file(self, cache):
        key, path = self._poison(cache, b"\x00\xffnot json at all")
        fresh = ResultCache(cache.directory)
        assert run_cells([MICRO], cache=fresh)[MICRO.id].source == "run"
        assert fresh.quarantined == 1
        # the bad bytes were moved aside and the re-run healed the slot
        assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA
        quarantine = cache.directory / QUARANTINE_DIR
        assert (quarantine / (key + ".json")).read_bytes() == b"\x00\xffnot json at all"
        reason = (quarantine / (key + ".reason")).read_text()
        assert key in reason and "unparseable JSON" in reason

    def test_hash_mismatch_is_quarantined(self, cache):
        run_cells([MICRO], cache=cache)
        key = cache.key_for(MICRO)
        path = cache.directory / key[:2] / (key + ".json")
        entry = json.loads(path.read_text())
        entry["payload_sha256"] = "0" * 64
        path.write_text(json.dumps(entry))
        fresh = ResultCache(cache.directory)
        assert run_cells([MICRO], cache=fresh)[MICRO.id].source == "run"
        assert fresh.quarantined == 1
        reason = next((cache.directory / QUARANTINE_DIR).glob("*.reason")).read_text()
        assert "payload hash mismatch" in reason

    def test_foreign_schema_is_not_quarantined(self, cache):
        # version skew is expected across upgrades — a plain miss, and
        # the re-store overwrites the stale entry in place
        run_cells([MICRO], cache=cache)
        key = cache.key_for(MICRO)
        path = cache.directory / key[:2] / (key + ".json")
        entry = json.loads(path.read_text())
        entry["schema"] = "repro-runner-cache/0"
        path.write_text(json.dumps(entry))
        fresh = ResultCache(cache.directory)
        run_cells([MICRO], cache=fresh)
        assert fresh.quarantined == 0
        assert not (cache.directory / QUARANTINE_DIR).exists()
        assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA

    def test_blocked_quarantine_is_a_miss_not_an_error(self, cache):
        # regression: a regular file squatting on the quarantine
        # directory made load() raise FileExistsError out of mkdir
        # (and, through the broker, fail a whole batch)
        key, path = self._poison(cache, b"\x00poisoned")
        (cache.directory / QUARANTINE_DIR).write_text("not a directory")
        fresh = ResultCache(cache.directory)
        assert fresh.load(key) is None
        assert fresh.misses == 1
        assert fresh.quarantined == 0
        assert path.read_bytes() == b"\x00poisoned"  # left in place
        assert [row["status"] for row in fresh.verify_entries()] == ["corrupt"]
        # the run treats it as a miss, re-simulates, and the store heals it
        assert run_cells([MICRO], cache=fresh)[MICRO.id].source == "run"
        assert ResultCache(cache.directory).load(key) is not None
        assert fresh.verify_entries()[0]["status"] == "ok"

    def test_rerun_after_quarantine_heals_the_cache(self, cache):
        self._poison(cache, b"garbage")
        healing = ResultCache(cache.directory)
        run_cells([MICRO], cache=healing)
        healed = ResultCache(cache.directory)
        assert run_cells([MICRO], cache=healed)[MICRO.id].source == "cache"
        assert healed.quarantined == 0


class TestVerifyEntries:
    def test_clean_store_reports_all_ok(self, cache):
        run_cells([MICRO, cells.breakdown()], cache=cache)
        report = ResultCache(cache.directory).verify_entries()
        assert len(report) == 2
        assert all(row["status"] == "ok" for row in report)
        assert {row["cell"] for row in report} == {MICRO.id, "breakdown"}

    def test_bad_entry_reported_and_quarantined(self, cache):
        run_cells([MICRO, cells.breakdown()], cache=cache)
        key = cache.key_for(MICRO)
        path = cache.directory / key[:2] / (key + ".json")
        entry = json.loads(path.read_text())
        entry["payload"] = {"tampered": True}
        path.write_text(json.dumps(entry))

        verifier = ResultCache(cache.directory)
        report = verifier.verify_entries()
        by_status = {row["status"] for row in report}
        assert by_status == {"ok", "quarantined"}
        bad = next(row for row in report if row["status"] == "quarantined")
        assert bad["key"] == key
        assert "payload hash mismatch" in bad["reason"]
        assert verifier.quarantined == 1
        assert not path.exists()

    def test_empty_or_missing_directory_is_fine(self, tmp_path):
        assert ResultCache(tmp_path / "nonexistent").verify_entries() == []


class TestStaleScratchSweep:
    def _scratch(self, cache, pid_suffix):
        bucket = cache.directory / "ab"
        bucket.mkdir(parents=True, exist_ok=True)
        scratch = bucket / ("abcd.json.tmp.%s" % pid_suffix)
        scratch.write_text("partial write")
        return scratch

    def test_dead_pid_scratch_swept_on_open(self, cache):
        # pid 2**22+1 is beyond the default pid_max, so it cannot be alive
        dead = self._scratch(cache, str(2**22 + 1))
        mangled = self._scratch(cache, "notapid")
        swept = ResultCache(cache.directory)
        assert not dead.exists()
        assert not mangled.exists()
        assert swept.swept_tmp == 2

    def test_live_pid_scratch_left_alone(self, cache):
        # our own pid is definitionally alive: a concurrent run mid-store
        live = self._scratch(cache, str(os.getpid()))
        swept = ResultCache(cache.directory)
        assert live.exists()
        assert swept.swept_tmp == 0

    def test_scratch_files_do_not_satisfy_lookups(self, cache):
        self._scratch(cache, str(os.getpid()))
        fresh = ResultCache(cache.directory)
        assert run_cells([MICRO], cache=fresh)[MICRO.id].source == "run"


class TestEntryRoundTrip:
    def test_hit_preserves_payload_and_sim_stats(self, cache):
        cold = run_cells([MICRO], cache=cache)[MICRO.id]
        warm = run_cells([MICRO], cache=cache)[MICRO.id]
        assert warm.source == "cache"
        assert warm.payload == cold.payload
        assert warm.simulated_cycles == cold.simulated_cycles
        assert warm.engines == cold.engines
        assert warm.wall_ms == 0.0  # a hit simulates nothing
        assert cold.simulated_cycles > 0
        assert cold.engines > 0


class TestWriteHardening:
    """A full or read-only disk costs cache coverage, never the cell."""

    def test_store_oserror_degrades_to_recorded_miss(self, cache, monkeypatch):
        def refuse(_src, _dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.runner.cache.os.replace", refuse)
        with pytest.warns(UserWarning, match="cache store failed"):
            result = run_cells([MICRO], cache=cache)[MICRO.id]
        assert result.source == "run"  # the cell itself still ran
        assert cache.write_errors == 1
        # the scratch file was cleaned up, nothing half-written survives
        assert not list(cache.directory.glob("*/*.json*"))

    def test_write_error_warns_once_then_counts_silently(self, cache, monkeypatch):
        monkeypatch.setattr(
            "repro.runner.cache.os.replace",
            lambda _src, _dst: (_ for _ in ()).throw(OSError("read-only")),
        )
        other = cells.micro("kvm-x86")
        with pytest.warns(UserWarning) as caught:
            run_cells([MICRO], cache=cache)
            run_cells([other], cache=cache)
        assert cache.write_errors == 2
        assert (
            sum("cache store failed" in str(w.message) for w in caught) == 1
        )

    def test_failed_store_is_a_miss_on_the_next_run(self, cache, monkeypatch):
        def refuse(_src, _dst):
            raise OSError("full")

        monkeypatch.setattr("repro.runner.cache.os.replace", refuse)
        with pytest.warns(UserWarning):
            run_cells([MICRO], cache=cache)
        monkeypatch.undo()
        # the entry never landed, so the rerun simulates (and now stores)
        rerun = run_cells([MICRO], cache=cache)[MICRO.id]
        assert rerun.source == "run"
        assert run_cells([MICRO], cache=cache)[MICRO.id].source == "cache"
