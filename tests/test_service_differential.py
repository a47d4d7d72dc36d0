"""The service differential gate: served bytes == direct runner bytes.

For every target (and for what-if override variants), the document a
running server returns must carry a ``result`` whose canonical-JSON
sha256 equals the one the direct PR-3 runner path computes for the same
canonical query — across cold and warm cache.  This is the service twin of ``test_runner_differential.py``:
the server is allowed to add latency, never to move a byte.
"""

import pytest

from repro.runner.cache import ResultCache
from repro.runner.resilience import payload_digest
from repro.service import queries

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
    query, _options = queries.canonicalize(
        {"target": target, "params": params, "costs": costs or {}}
    )
    result, stats = queries.run_direct(query, cache=cache)
    return query, result, stats


class TestServedEqualsDirect:
    @pytest.mark.parametrize("target,params", TARGET_MATRIX)
    def test_every_target_is_byte_identical(self, target, params):
        query, result, _stats = _direct(target, params)
        with running_server() as (_handle, client):
            document = client.query(target, params)
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
