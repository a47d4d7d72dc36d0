"""Cache-key derivation and invalidation for the suite result cache.

The content address must move whenever anything that can change a cell
payload moves (live cost-table values, cell parameters, model source),
and a poisoned or corrupt cache entry must degrade to a miss — never a
crash, never a stale hit.  A verified entry is kept in memory, bounded,
and shared by every later answer, which must never change it.
"""

import copy
import dataclasses
import enum
import json
import os
import threading

import pytest

from repro.hw import costs as hw_costs
from repro.runner import ResultCache, cells, run_cells
from repro.runner.cache import CACHE_SCHEMA, MEMO_CAP, live_costs
from repro.runner.pool import CellResult
from repro.service import queries


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


class TestPerThreadOverrides:
    def test_another_threads_what_if_block_leaves_this_thread_default(
        self, cache
    ):
        default_trap = hw_costs.arm_costs().trap_to_el2
        default_base = cache.base_fingerprint()
        inside, leave = threading.Event(), threading.Event()
        seen = {}

        def what_if():
            with hw_costs.overriding({"arm": {"trap_to_el2": 2 * default_trap}}):
                seen["trap"] = hw_costs.arm_costs().trap_to_el2
                seen["base"] = cache.base_fingerprint()
                inside.set()
                leave.wait(30)

        thread = threading.Thread(target=what_if)
        thread.start()
        try:
            assert inside.wait(30)
            assert hw_costs.arm_costs().trap_to_el2 == default_trap
            assert cache.base_fingerprint() == default_base
        finally:
            leave.set()
            thread.join(30)
        # the other thread did see its own document
        assert seen["trap"] == 2 * default_trap
        assert seen["base"] != default_base


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
        key, path = self._entry_path(cache)
        path.write_bytes(b"\x00\xffnot json at all")
        fresh = ResultCache(cache.directory)
        assert fresh.load(key) is None
        assert fresh.misses == 1
        assert path.read_bytes() == b"\x00\xffnot json at all"  # left in place
        assert run_cells([MICRO], cache=fresh)[MICRO.id].source == "run"

    def test_hash_mismatch_is_resimulated_then_healed(self, cache):
        baseline = run_cells([MICRO], cache=cache)[MICRO.id]
        key, path = self._entry_path(cache)
        entry = json.loads(path.read_text())
        entry["payload_sha256"] = "0" * 64
        path.write_text(json.dumps(entry))
        fresh = ResultCache(cache.directory)
        rerun = run_cells([MICRO], cache=fresh)[MICRO.id]
        assert rerun.source == "run"
        assert rerun.payload == baseline.payload
        assert fresh.misses == 1
        # healed in place: the entry verifies and nothing else was left
        assert ResultCache(cache.directory).load(key) is not None
        assert [p for p in cache.directory.rglob("*") if p.is_file()] == [path]

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
    """Nothing is moved aside any more: a bad entry stays in place as a
    miss, and the cell's next store overwrites it with a good one."""

    def _poison(self, cache, payload_bytes):
        run_cells([MICRO], cache=cache)
        key = cache.key_for(MICRO)
        path = cache.directory / key[:2] / (key + ".json")
        path.write_bytes(payload_bytes)
        return key, path

    def _files(self, cache):
        return [p for p in cache.directory.rglob("*") if p.is_file()]

    def test_garbage_entry_is_quarantined_with_reason_file(self, cache):
        # the bad bytes are overwritten in place: no side directory and
        # no reason file are left behind
        _key, path = self._poison(cache, b"\x00\xffnot json at all")
        fresh = ResultCache(cache.directory)
        assert run_cells([MICRO], cache=fresh)[MICRO.id].source == "run"
        assert fresh.misses == 1
        assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA
        assert self._files(cache) == [path]

    def test_foreign_schema_is_not_quarantined(self, cache):
        # version skew is expected across upgrades: a plain miss, and
        # the re-store overwrites the stale entry in place
        run_cells([MICRO], cache=cache)
        key = cache.key_for(MICRO)
        path = cache.directory / key[:2] / (key + ".json")
        entry = json.loads(path.read_text())
        entry["schema"] = "repro-runner-cache/0"
        path.write_text(json.dumps(entry))
        fresh = ResultCache(cache.directory)
        assert run_cells([MICRO], cache=fresh)[MICRO.id].source == "run"
        assert fresh.misses == 1
        assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA
        assert self._files(cache) == [path]

    def test_rerun_after_quarantine_heals_the_cache(self, cache):
        self._poison(cache, b"garbage")
        healing = ResultCache(cache.directory)
        assert run_cells([MICRO], cache=healing)[MICRO.id].source == "run"
        healed = ResultCache(cache.directory)
        assert run_cells([MICRO], cache=healed)[MICRO.id].source == "cache"
        assert healed.misses == 0


class TestStaleScratchSweep:
    """A ``*.tmp.<pid>`` file a killed writer left behind is never read:
    a lookup opens only ``<key>.json``."""

    def test_scratch_files_do_not_satisfy_lookups(self, cache):
        # a complete, valid entry stranded under its scratch name (the
        # writer died between the write and the rename)
        run_cells([MICRO], cache=cache)
        key = cache.key_for(MICRO)
        path = cache.directory / key[:2] / (key + ".json")
        path.rename(path.with_name("%s.tmp.%d" % (path.name, os.getpid())))
        fresh = ResultCache(cache.directory)
        assert run_cells([MICRO], cache=fresh)[MICRO.id].source == "run"
        assert fresh.misses == 1


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


def _truncate(path):
    path.write_text(path.read_text()[:40])


def _foreign_schema(path):
    entry = json.loads(path.read_text())
    entry["schema"] = "repro-runner-cache/0"
    path.write_text(json.dumps(entry))


def _failing_digest(path):
    entry = json.loads(path.read_text())
    entry["payload_sha256"] = "0" * 64
    path.write_text(json.dumps(entry))


class TestVerifiedMemo:
    """A verified entry is read from disk once per cache, then kept."""

    def _stored(self, cache):
        run_cells([MICRO], cache=cache)
        key = cache.key_for(MICRO)
        return key, cache.directory / key[:2] / (key + ".json")

    def test_a_verified_entry_is_served_without_its_file(self, cache):
        key, path = self._stored(cache)
        fresh = ResultCache(cache.directory)
        first = fresh.load(key)
        assert first is not None
        path.unlink()
        assert fresh.load(key) == first
        assert (fresh.hits, fresh.misses) == (2, 0)

    @pytest.mark.parametrize(
        "poison",
        [_truncate, _foreign_schema, _failing_digest],
        ids=["truncated", "foreign-schema", "failing-digest"],
    )
    def test_a_bad_entry_is_never_kept(self, cache, poison):
        key, path = self._stored(cache)
        poison(path)
        fresh = ResultCache(cache.directory)
        assert fresh.load(key) is None
        assert fresh.load(key) is None
        assert (fresh.hits, fresh.misses) == (0, 2)
        # the re-simulated cell's store heals the entry on disk
        assert run_cells([MICRO], cache=fresh)[MICRO.id].source == "run"
        assert fresh.load(key) is not None
        assert fresh.hits == 1

    def test_a_store_is_not_kept(self, cache):
        key, path = self._stored(cache)
        path.unlink()
        assert cache.load(key) is None

    def test_the_memo_never_holds_more_than_the_cap(self, cache):
        keys = []
        for index in range(MEMO_CAP + 10):
            spec = cells.tcprr("native", transactions=index + 1)
            key = cache.key_for(spec)
            cache.store(
                key,
                CellResult(
                    spec=spec,
                    payload={"index": index},
                    wall_ms=0.0,
                    simulated_cycles=0,
                    engines=0,
                    source="run",
                ),
            )
            keys.append(key)
        for key in keys:
            assert cache.load(key) is not None
            assert len(cache._memo) <= MEMO_CAP
        assert cache.hits == MEMO_CAP + 10


def test_shared_entries_survive_every_target_unchanged(tmp_path):
    """Answers share kept entries, so an answer that changed a payload
    in place would corrupt every later answer of that cell."""
    directory = tmp_path / "cache"
    simulated = [
        queries.direct_document(target, cache=ResultCache(directory))
        for target in queries.TARGETS
    ]
    cache = ResultCache(directory)
    first = [queries.direct_document(target, cache=cache) for target in queries.TARGETS]
    kept = copy.deepcopy(cache._memo)
    assert kept
    second = [
        queries.direct_document(target, cache=cache) for target in queries.TARGETS
    ]
    digests = [
        [document["result_sha256"] for document in documents]
        for documents in (simulated, first, second)
    ]
    assert digests[0] == digests[1] == digests[2]
    assert all(
        document["stats"]["cached"] == document["stats"]["cells"]
        for document in second
    )
    assert cache._memo == kept
    on_disk = ResultCache(directory)
    assert cache._memo == {key: on_disk.load(key) for key in cache._memo}
