"""Admission control: overload sheds deterministically, never partially.

``admit_max`` bounds queries in residence; at capacity the server sheds
with a stable 503 *before* touching the query (no canonicalization, no
broker submission), so a shed request is provably not partially
executed.  A request that is too large for its target, or carries a
key other than ``target``/``params``/``costs``, is a ``bad-request``
with ``partial: false`` before any cell is enqueued, and leaves the
service immediately usable.
"""

import pytest

from repro.cli import check_document
from repro.service import queries
from repro.service.protocol import canonical_json

from tests.serviceutil import (
    QueryThread,
    counter_value,
    running_server,
    wait_until,
)


def _requested(handle):
    return counter_value(handle, "service.cells.requested")


class TestOverloadShedding:
    def test_at_capacity_sheds_with_stable_error(self):
        with running_server(admit_max=1) as (handle, client):
            handle.broker.hold()
            try:
                occupant = QueryThread(client, "table2", None)
                occupant.start()
                wait_until(
                    lambda: _requested(handle) == 4,
                    "the occupant to claim the only slot",
                )
                requested_before = _requested(handle)

                status, document = client.query_raw({"target": "table3"})
                assert status == 503
                assert document["ok"] is False
                assert document["partial"] is False
                assert document["error"]["code"] == "overloaded"
                assert document["error"]["active"] == 1
                assert document["error"]["admit_max"] == 1

                # shed before execution: the broker never saw it
                assert _requested(handle) == requested_before
                assert counter_value(handle, "service.admit.rejects") == 1

                # shedding is deterministic, not probabilistic
                for _ in range(3):
                    repeat_status, repeat_doc = client.query_raw(
                        {"target": "table3"}
                    )
                    assert repeat_status == 503
                    assert canonical_json(repeat_doc) == canonical_json(
                        document
                    )
            finally:
                handle.broker.release()
            assert occupant.result()["ok"] is True
            # slot freed: the same query is now admitted and served
            recovered = client.query("table3")
            assert recovered["ok"] is True
            _status, health = client.request("GET", "/healthz")
            assert health["active"] == 0

    def test_shed_request_is_rejected_even_if_malformed(self):
        # admission is checked before parsing: a garbage query sheds
        # with 503, not 400, proving nothing downstream ran
        with running_server(admit_max=1) as (handle, client):
            handle.broker.hold()
            try:
                occupant = QueryThread(client, "micro", {"key": "kvm-arm"})
                occupant.start()
                wait_until(
                    lambda: _requested(handle) == 1,
                    "the occupant to claim the only slot",
                )
                status, document = client.query_raw({"target": "bogus"})
                assert status == 503
                assert document["error"]["code"] == "overloaded"
            finally:
                handle.broker.release()
            occupant.result()


class TestPlanBounds:
    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"target": "micro", "deadline_ms": 50}, "deadline_ms"),
            ({"target": "micro", "budget_cells": 3}, "budget_cells"),
            (
                {
                    "target": "oversub",
                    "params": {
                        "timeslices_us": [100.0] * (queries.MAX_TIMESLICES + 1)
                    },
                },
                "timeslices_us",
            ),
            ({"target": "figure4", "params": {"irq_vcpus": 5}}, "irq_vcpus"),
        ],
        ids=["deadline", "budget", "nine-timeslices", "five-irq-vcpus"],
    )
    def test_rejected_before_execution(self, payload, named):
        with running_server() as (handle, client):
            status, document = client.query_raw(payload)
            assert status == 400
            assert document["ok"] is False
            assert document["partial"] is False
            assert document["error"]["code"] == "bad-request"
            assert named in document["error"]["message"]
            assert check_document(document) == []
            assert _requested(handle) == 0
            # the service stays usable
            assert client.query("micro", {"key": "kvm-arm"})["ok"] is True
