"""The service differential gate: served bytes == direct runner bytes.

For every target (and for what-if override variants), the document a
running server returns must carry a ``result`` whose canonical-JSON
sha256 equals the one the direct PR-3 runner path computes for the same
canonical query — across cold and warm cache.  This is the service twin of ``test_runner_differential.py``:
the server is allowed to add latency, never to move a byte.
"""

import asyncio
import builtins

import pytest

from repro.runner.cache import ResultCache
from repro.runner.resilience import payload_digest
from repro.service import queries
from repro.service.client import AsyncServiceClient

from tests.serviceutil import running_server

#: every target with a representative (cheap) parameterization
TARGET_MATRIX = [
    ("micro", {"key": "kvm-arm"}),
    ("micro", {"key": "kvm-vhe-arm"}),
    ("table2", {}),
    ("table2", {"keys": ["kvm-arm", "xen-arm"]}),
    ("table3", {}),
    ("table5", {"transactions": 10}),
    ("figure4", {"keys": ["kvm-arm"]}),
    ("ablation", {"keys": ["kvm-arm"], "workloads": ["Apache"]}),
    ("vhe", {}),
    ("oversub", {"keys": ["kvm-arm"], "timeslices_us": [100.0, 1000.0]}),
    ("report", {"transactions": 10}),
]


def _direct(target, params, costs=None, cache=None):
    query = queries.canonicalize(
        {"target": target, "params": params, "costs": costs or {}}
    )
    result, stats = queries.run_direct(query, cache=cache)
    return query, result, stats


class TestServedEqualsDirect:
    @pytest.mark.parametrize("target,params", TARGET_MATRIX)
    def test_every_target_is_byte_identical(self, target, params):
        query, result, _stats = _direct(target, params)
        with running_server() as (handle, client):
            document = client.query(target, params)
            async_client = AsyncServiceClient(port=handle.port)

            async def served():
                try:
                    return await async_client.query(target, params)
                finally:
                    await async_client.close()

            async_document = asyncio.run(served())
        # the asyncio-streams client parses the very same result bytes
        assert payload_digest(async_document["result"]) == document["result_sha256"]
        assert document["query_key"] == query.key
        assert document["result_sha256"] == payload_digest(result)
        # the parsed response body re-digests to the same bytes: the
        # HTTP round trip preserved every float and every key order
        assert payload_digest(document["result"]) == document["result_sha256"]
        assert document["result"] == result

    def test_cost_overrides_served_and_direct_agree(self):
        costs = {"arm": {"trap_to_el2": 152, "save.GP": 300}}
        _query, result, _stats = _direct("micro", {"key": "kvm-arm"}, costs)
        _dquery, default_result, _dstats = _direct("micro", {"key": "kvm-arm"})
        assert result != default_result  # the override actually bites
        with running_server() as (_handle, client):
            document = client.query("micro", {"key": "kvm-arm"}, costs=costs)
            default_document = client.query("micro", {"key": "kvm-arm"})
        assert document["result_sha256"] == payload_digest(result)
        assert default_document["result_sha256"] == payload_digest(default_result)
        assert document["query_key"] != default_document["query_key"]

    def test_x86_override_reaches_the_x86_platforms(self):
        costs = {"x86": {"vmexit_hw": 1040}}
        _query, result, _stats = _direct("table2", {}, costs)
        _dquery, default_result, _dstats = _direct("table2", {})
        assert result["kvm-x86"] != default_result["kvm-x86"]
        assert result["kvm-arm"] == default_result["kvm-arm"]
        with running_server() as (_handle, client):
            document = client.query("table2", costs=costs)
        assert document["result_sha256"] == payload_digest(result)

    def test_x86_override_reuses_the_default_arm_cells(self, tmp_path):
        costs = {"x86": {"vmexit_hw": 1040}}
        _query, direct_result, _stats = _direct("table2", {}, costs)
        with running_server(cache_dir=str(tmp_path / "cache")) as (_h, client):
            default = client.query("table2")
            what_if = client.query("table2", costs=costs)
        assert default["stats"]["simulated"] == 4
        assert what_if["stats"]["cached"] == 2
        assert what_if["stats"]["simulated"] == 2
        for key in ("kvm-arm", "xen-arm"):
            assert what_if["result"][key] == default["result"][key]
        assert what_if["result"]["kvm-x86"] != default["result"]["kvm-x86"]
        assert what_if["result_sha256"] == payload_digest(direct_result)


class TestAcrossJobsAndCache:
    def test_cold_then_warm_cache_same_bytes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _query, direct_result, _stats = _direct("micro", {"key": "xen-arm"})
        with running_server(cache_dir=cache_dir) as (handle, client):
            cold = client.query("micro", {"key": "xen-arm"})
            assert cold["stats"]["simulated"] == 1
            assert cold["stats"]["cached"] == 0
        # a fresh server over the same cache directory: pure hits
        with running_server(cache_dir=cache_dir) as (handle, client):
            warm = client.query("micro", {"key": "xen-arm"})
            assert warm["stats"]["cached"] == 1
            assert warm["stats"]["simulated"] == 0
        assert cold["result_sha256"] == warm["result_sha256"]
        assert cold["result_sha256"] == payload_digest(direct_result)
        assert cold["result"] == warm["result"]

    def test_override_queries_get_their_own_cache_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        costs = {"arm": {"trap_to_el2": 152}}
        _q1, default_cold, _s = _direct("micro", {"key": "kvm-arm"}, cache=cache)
        _q2, what_if_cold, _s = _direct(
            "micro", {"key": "kvm-arm"}, costs, cache=cache
        )
        assert default_cold != what_if_cold
        # warm reads return each variant's own bytes, not the other's
        _q3, default_warm, default_stats = _direct(
            "micro", {"key": "kvm-arm"}, cache=cache
        )
        _q4, what_if_warm, what_if_stats = _direct(
            "micro", {"key": "kvm-arm"}, costs, cache=cache
        )
        assert default_warm == default_cold
        assert what_if_warm == what_if_cold
        assert default_stats["cached"] == 1
        assert what_if_stats["cached"] == 1


#: (target, params, costs) -> the 16-hex prefix of its ``result_sha256``:
#: every target's default document, then one what-if document per target
PINNED_DIGESTS = [
    ("micro", {}, {}, "4e46da43dbee4d87"),
    ("table2", {}, {}, "4eefb68ed39393d1"),
    ("table3", {}, {}, "411fc6ca1e2dbaa5"),
    ("table5", {}, {}, "770b5b077b107201"),
    ("figure4", {}, {}, "6f964788fada445e"),
    ("ablation", {}, {}, "1a193e8b19dccd4b"),
    ("vhe", {}, {}, "3a793e5092a7bb4c"),
    ("oversub", {}, {}, "8d0f882dabfcc871"),
    ("report", {}, {}, "153c74286324aab8"),
    ("micro", {"key": "xen-arm"}, {"arm": {"trap_to_el2": 152}}, "2e7b881ba42bff74"),
    ("table2", {}, {"x86": {"vmexit_hw": 1040}}, "4a6f893c8c6851e1"),
    ("table3", {}, {"arm": {"save.GP": 300}}, "4748023b5d6771a4"),
    ("table5", {"transactions": 10}, {"arm": {"trap_to_el2": 152}}, "148a16f24e1e2362"),
    (
        "figure4",
        {"keys": ["kvm-arm", "xen-arm"]},
        {"arm": {"trap_to_el2": 152}},
        "6c35dda9970c9fcc",
    ),
    ("ablation", {}, {"arm": {"trap_to_el2": 152}}, "8345a3bea434bd02"),
    ("vhe", {}, {"arm": {"trap_to_el2": 152}}, "55b1b76acb8156ec"),
    (
        "oversub",
        {"keys": ["kvm-arm"]},
        {"arm": {"trap_to_el2": 152}},
        "2353aa6dc943ffce",
    ),
    ("report", {"transactions": 10}, {"x86": {"vmexit_hw": 1040}}, "606a7a6c73d19386"),
]

#: the targets whose results hold Table V means, the model's one float sum
FLOAT_SUM_TARGETS = ("table5", "figure4", "vhe")


def _neumaier_sum(iterable, start=0):
    """``sum`` as Python 3.12 and later add floats: with a Neumaier
    compensation term."""
    total, compensation = start, 0.0
    for value in iterable:
        if isinstance(total, float) or isinstance(value, float):
            added = total + value
            if abs(total) >= abs(value):
                compensation += (total - added) + value
            else:
                compensation += (value - added) + total
            total = added
        else:
            total = total + value
    return total + compensation if compensation else total


class TestPinnedDigests:
    def test_every_target_matches_its_pinned_digest(self, tmp_path):
        """Direct, served cold and served warm (cache reads and assembly)
        all give the pinned bytes; the served path's own check compares
        against the direct path, which would move with it."""
        pinned = [prefix for _target, _params, _costs, prefix in PINNED_DIGESTS]
        direct = [
            queries.direct_document(target, params, costs)["result_sha256"][:16]
            for target, params, costs, _prefix in PINNED_DIGESTS
        ]
        with running_server(cache_dir=str(tmp_path / "cache")) as (handle, _client):
            client = AsyncServiceClient(port=handle.port)

            async def served():
                documents = []
                for _pass in ("cold", "warm"):
                    for target, params, costs, _prefix in PINNED_DIGESTS:
                        documents.append(await client.query(target, params, costs))
                await client.close()
                return documents

            documents = asyncio.run(served())
        cold, warm = documents[: len(pinned)], documents[len(pinned):]
        assert direct == pinned
        assert [document["result_sha256"][:16] for document in cold] == pinned
        assert [document["result_sha256"][:16] for document in warm] == pinned
        assert all(document["stats"]["simulated"] == 0 for document in warm)

    def test_pins_do_not_depend_on_how_sum_adds_floats(self, monkeypatch):
        """Model floats are summed left to right, so the bytes are the
        same on every interpreter, whatever its builtin ``sum`` does."""
        rows = [row for row in PINNED_DIGESTS if row[0] in FLOAT_SUM_TARGETS]
        monkeypatch.setattr(builtins, "sum", _neumaier_sum)
        direct = [
            queries.direct_document(target, params, costs)["result_sha256"][:16]
            for target, params, costs, _prefix in rows
        ]
        assert direct == [prefix for _target, _params, _costs, prefix in rows]
