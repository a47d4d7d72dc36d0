"""Coalescing under real concurrency: identical work simulates once.

The broker's ``hold()``/``release()`` gate makes these tests exact
rather than probabilistic: with the worker gated, we stack up client
queries, poll the ``service.cells.requested`` counter until every
submission has provably registered, then release the gate and assert
counter-level facts — how many cells were simulated, how many joined
in-flight work, how many batches the worker drained.
"""

from repro.service import queries

from tests.serviceutil import (
    counter_value,
    launch_queries,
    running_server,
    wait_until,
)


def _requested(handle):
    return counter_value(handle, "service.cells.requested")


class TestIdenticalQueries:
    def test_n_identical_queries_simulate_one_cell_set(self):
        clients = 5
        with running_server(admit_max=clients) as (handle, client):
            handle.broker.hold()
            try:
                threads = launch_queries(
                    client, [("table2", None)] * clients
                )
                wait_until(
                    lambda: _requested(handle) == clients * 4,
                    "all %d submissions to register" % clients,
                )
            finally:
                handle.broker.release()
            documents = [thread.result() for thread in threads]

            # one simulated cell set, everything else joined in flight
            assert counter_value(handle, "service.cells.simulated") == 4
            assert counter_value(handle, "service.cells.coalesced") == (
                (clients - 1) * 4
            )
            assert counter_value(handle, "service.batches") == 1

            # every caller got the same bytes
            shas = {doc["result_sha256"] for doc in documents}
            assert len(shas) == 1

            # exactly one query owned the simulation; the rest coalesced
            per_query = sorted(doc["stats"]["coalesced"] for doc in documents)
            assert per_query == [0] + [4] * (clients - 1)
            for doc in documents:
                assert doc["stats"]["cells"] == 4
                assert (
                    doc["stats"]["coalesced"]
                    + doc["stats"]["cached"]
                    + doc["stats"]["simulated"]
                    == 4
                )
            assert (
                counter_value(handle, "service.coalesce.queries")
                == clients - 1
            )

    def test_sequential_repeats_do_not_coalesce_without_cache(self):
        with running_server() as (handle, client):
            first = client.query("micro", {"key": "kvm-arm"})
            second = client.query("micro", {"key": "kvm-arm"})
        assert first["result_sha256"] == second["result_sha256"]
        assert first["stats"]["coalesced"] == 0
        assert second["stats"]["coalesced"] == 0
        # no cache configured: the second run re-simulates
        assert second["stats"]["simulated"] == 1
        assert counter_value(handle, "service.cells.simulated") == 2


class TestDistinctQueriesSharingCells:
    def test_shared_cells_simulate_once(self):
        # table2 = micro cells for 4 platforms; the two micro queries
        # each overlap table2 in exactly one cell; vhe is disjoint.
        query_table2 = queries.canonicalize({"target": "table2"})
        query_vhe = queries.canonicalize({"target": "vhe"})
        table2_specs, _ = queries.plan(query_table2)
        vhe_specs, _ = queries.plan(query_vhe)
        distinct_ids = {spec.id for spec in table2_specs + vhe_specs}

        requests = [
            ("table2", None),
            ("micro", {"key": "kvm-arm"}),
            ("micro", {"key": "xen-arm"}),
            ("vhe", None),
        ]
        total_cells = 4 + 1 + 1 + len(vhe_specs)
        with running_server(admit_max=len(requests)) as (handle, client):
            handle.broker.hold()
            try:
                threads = launch_queries(client, requests)
                wait_until(
                    lambda: _requested(handle) == total_cells,
                    "all distinct submissions to register",
                )
            finally:
                handle.broker.release()
            documents = [thread.result() for thread in threads]

            # each unique cell simulated exactly once, overlaps joined
            assert counter_value(handle, "service.cells.simulated") == len(
                distinct_ids
            )
            assert counter_value(handle, "service.cells.coalesced") == (
                total_cells - len(distinct_ids)
            )

        by_target = {doc["target"]: doc for doc in documents}
        micro_docs = [
            doc
            for doc in documents
            if doc["target"] == "micro"
        ]
        # the micro results agree with the table2 rows they share
        table2_result = by_target["table2"]["result"]
        for doc in micro_docs:
            key = doc["params"]["key"]
            assert doc["result"] == table2_result[key]

    def test_override_variants_do_not_coalesce_with_default(self):
        costs = {"arm": {"trap_to_el2": 152}}
        with running_server(admit_max=3) as (handle, client):
            handle.broker.hold()
            try:
                threads = launch_queries(
                    client,
                    [("micro", {"key": "kvm-arm"})] * 2,
                    costs=None,
                ) + launch_queries(
                    client,
                    [("micro", {"key": "kvm-arm"})],
                    costs=costs,
                )
                wait_until(
                    lambda: _requested(handle) == 3,
                    "default pair plus what-if to register",
                )
            finally:
                handle.broker.release()
            documents = [thread.result() for thread in threads]
            # the identical pair coalesces; the what-if does not
            assert counter_value(handle, "service.cells.simulated") == 2
            assert counter_value(handle, "service.cells.coalesced") == 1
        shas = [doc["result_sha256"] for doc in documents]
        assert shas[0] == shas[1]
        assert shas[2] != shas[0]

    def test_other_arch_override_coalesces_with_default(self):
        # an x86-only document does not touch an ARM cell: the what-if
        # query joins the default pair's in-flight cell
        costs = {"x86": {"vmexit_hw": 1040}}
        with running_server(admit_max=3) as (handle, client):
            handle.broker.hold()
            try:
                threads = launch_queries(
                    client,
                    [("micro", {"key": "kvm-arm"})] * 2,
                    costs=None,
                ) + launch_queries(
                    client,
                    [("micro", {"key": "kvm-arm"})],
                    costs=costs,
                )
                wait_until(
                    lambda: _requested(handle) == 3,
                    "default pair plus what-if to register",
                )
            finally:
                handle.broker.release()
            documents = [thread.result() for thread in threads]
            assert counter_value(handle, "service.cells.simulated") == 1
            assert counter_value(handle, "service.cells.coalesced") == 2
        shas = {doc["result_sha256"] for doc in documents}
        assert len(shas) == 1
        # the query itself keeps its identity: the echoed costs differ
        assert documents[2]["costs"] == costs
        assert documents[2]["query_key"] != documents[0]["query_key"]
