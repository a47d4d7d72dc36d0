"""Service protocol layer: canonicalization, query keys, error docs.

These are the contracts the rest of the service tests build on: two
requests that mean the same thing must produce the same query key (the
coalescing primitive), anything malformed must come back as the stable
``bad-request`` document, and the cost-override layer must be scoped,
validated, and restorable.
"""

import json

import pytest

from repro.cli import check_document
from repro.core.testbed import ALL_KEYS
from repro.errors import ConfigurationError
from repro.hw import costs as hw_costs
from repro.runner import cells
from repro.service import protocol, queries
from repro.service.server import ServiceConfig
from repro.workloads.base import VM_VCPUS

from tests.serviceutil import running_server

class TestCanonicalization:
    def test_equivalent_requests_share_a_key(self):
        spelled_out = queries.canonicalize(
            {"target": "table5", "params": {"transactions": 40}, "costs": {}}
        )
        defaulted = queries.canonicalize({"target": "table5"})
        assert spelled_out.key == defaulted.key
        assert spelled_out.params == {"transactions": 40}

    def test_key_order_is_irrelevant(self):
        one = queries.canonicalize(
            {"params": {"key": "xen-arm"}, "target": "micro"}
        )
        two = queries.canonicalize(
            {"target": "micro", "params": {"key": "xen-arm"}}
        )
        assert one.key == two.key

    def test_costs_enter_the_key(self):
        plain = queries.canonicalize({"target": "micro"})
        what_if = queries.canonicalize(
            {"target": "micro", "costs": {"arm": {"trap_to_el2": 152}}}
        )
        assert plain.key != what_if.key

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"target": "no-such-target"},
            {"target": "micro", "params": {"key": "not-a-platform"}},
            {"target": "micro", "params": {"bogus": 1}},
            {"target": "micro", "unexpected": True},
            {"target": "table5", "params": {"transactions": 0}},
            # one virtio-net rx queue of transactions (see MAX_RR_TRANSACTIONS)
            {"target": "table5", "params": {"transactions": 257}},
            {"target": "table5", "params": {"transactions": 10**30}},
            {"target": "report", "params": {"transactions": 257}},
            {"target": "report", "params": {"transactions": 10**30}},
            {"target": "table2", "params": {"keys": []}},
            {"target": "table2", "params": {"keys": ["kvm-arm", "kvm-arm"]}},
            {"target": "oversub", "params": {"timeslices_us": [0]}},
            {"target": "ablation", "params": {"workloads": ["NotAWorkload"]}},
            {"target": "micro", "costs": {"riscv": {}}},
            {"target": "micro", "costs": {"arm": {"trap_to_el2": -1}}},
            {"target": "micro", "costs": {"arm": {"no_such_cost": 5}}},
            {"target": "table5", "costs": {"arm": {"copy_per_byte_den": 0}}},
            {"target": "table5", "costs": {"x86": {"copy_per_byte_den": 0}}},
            {"target": "micro", "deadline_ms": 0},
            {"target": "micro", "budget_cells": 0},
            # json.loads accepts NaN and Infinity; 1e300 is standard JSON
            {"target": "oversub", "params": {"timeslices_us": [float("inf")]}},
            {"target": "oversub", "params": {"timeslices_us": [float("nan")]}},
            {"target": "oversub", "params": {"timeslices_us": [1e300]}},
            {
                "target": "oversub",
                "params": {"timeslices_us": [queries.MAX_TIMESLICE_US + 1]},
            },
            {"target": "micro", "deadline_ms": float("nan")},
            {"target": "micro", "deadline_ms": float("inf")},
            {"target": "micro", "deadline_ms": 10**400},  # past float range
            # past the VM's 4 VCPUs every irq_vcpus simulates the same spread
            {"target": "figure4", "params": {"irq_vcpus": 5}},
            {"target": "figure4", "params": {"irq_vcpus": 10**6}},
            {
                "target": "oversub",
                "params": {
                    "timeslices_us": [100.0] * (queries.MAX_TIMESLICES + 1)
                },
            },
            # a request is exactly {target, params, costs}
            {"target": "micro", "deadline_ms": 50},
            {"target": "micro", "budget_cells": 3},
            # non-finite numbers in a field that is read as a number
            {"target": "micro", "costs": {"arm": {"trap_to_el2": float("nan")}}},
            {"target": "micro", "costs": {"arm": {"trap_to_el2": float("inf")}}},
        ],
    )
    def test_bad_requests_raise(self, payload):
        with pytest.raises(ConfigurationError):
            queries.canonicalize(payload)

    def test_the_largest_valid_query_plans_forty_cells(self):
        # every parameter at its ceiling: all five keys, MAX_TIMESLICES
        # sweep points, every workload, the most transactions
        largest = {
            "keys": list(ALL_KEYS),
            "timeslices_us": [
                float(us) for us in range(1, queries.MAX_TIMESLICES + 1)
            ],
            "workloads": list(queries.WORKLOAD_NAMES),
            "transactions": cells.MAX_RR_TRANSACTIONS,
            "irq_vcpus": VM_VCPUS,
            "key": ALL_KEYS[0],
        }
        sizes = {}
        for name, target in queries.TARGETS.items():
            known = {param for param, _help in target.param_help}
            query = queries.canonicalize(
                {
                    "target": name,
                    "params": {
                        param: value
                        for param, value in largest.items()
                        if param in known
                    },
                }
            )
            sizes[name] = len(queries.plan(query)[0])
        assert max(sizes.values()) == 40
        assert sizes["oversub"] == len(ALL_KEYS) * queries.MAX_TIMESLICES

    def test_timeslice_bound_keeps_the_paper_grid(self):
        grid = list(cells.OVERSUB_TIMESLICES_US) + [queries.MAX_TIMESLICE_US]
        query = queries.canonicalize(
            {"target": "oversub", "params": {"timeslices_us": grid}}
        )
        assert query.params["timeslices_us"] == grid

    def test_transactions_bound_still_runs(self):
        assert cells.MAX_RR_TRANSACTIONS == 256
        document = queries.direct_document(
            "table5", {"transactions": cells.MAX_RR_TRANSACTIONS}
        )
        assert document["params"] == {"transactions": 256}
        assert sorted(document["result"]) == sorted(cells.TCPRR_CONFIGS)

    def test_plan_pairs_base_and_exec_specs(self):
        query = queries.canonicalize(
            {"target": "table2", "costs": {"arm": {"trap_to_el2": 152}}}
        )
        base, execs = queries.plan(query)
        assert len(base) == len(execs) == 4
        for base_spec, exec_spec in zip(base, execs):
            assert cells.strip_cost_overrides(exec_spec) == base_spec
            if base_spec.params_dict()["key"].endswith("-x86"):
                # an ARM-only document leaves x86 cells at their default
                # identity: same id, same cache key, same in-flight entry
                assert exec_spec == base_spec
            else:
                assert exec_spec.params_dict()[cells.COSTS_PARAM] == (
                    '{"arm":{"trap_to_el2":152}}'
                )

    def test_plan_without_costs_is_identity(self):
        query = queries.canonicalize({"target": "table2"})
        base, execs = queries.plan(query)
        assert base == execs


class TestCostOverrides:
    def test_overriding_is_scoped_and_restores(self):
        default = hw_costs.arm_costs().trap_to_el2
        with hw_costs.overriding({"arm": {"trap_to_el2": default * 2}}):
            assert hw_costs.arm_costs().trap_to_el2 == default * 2
        assert hw_costs.arm_costs().trap_to_el2 == default

    def test_register_class_override(self):
        from repro.hw.cpu.registers import RegClass

        with hw_costs.overriding({"arm": {"save.GP": 9999}}):
            assert hw_costs.arm_costs().save[RegClass.GP] == 9999

    def test_validate_canonicalizes(self):
        document = hw_costs.validate_overrides(
            {"x86": {"vmexit_hw": 600}, "arm": {"trap_to_el2": 80}}
        )
        assert list(document) == ["arm", "x86"]

    def test_override_changes_the_cell_id_and_payload(self):
        base = cells.micro("kvm-arm")
        spec = cells.with_cost_overrides(base, {"arm": {"trap_to_el2": 760}})
        assert spec.id != base.id
        default_payload = cells.run_cell(base)
        what_if_payload = cells.run_cell(spec)
        assert default_payload != what_if_payload
        # and the default world is untouched afterwards
        assert cells.run_cell(base) == default_payload


class TestHttpSurface:
    def test_unknown_route_is_not_found(self):
        with running_server() as (_handle, client):
            status, document = client.request("GET", "/nope")
            assert status == 404
            assert document["error"]["code"] == "not-found"
            assert document["partial"] is False

    def test_query_requires_post(self):
        with running_server() as (_handle, client):
            status, document = client.request("GET", "/v1/query")
            assert status == 400
            assert document["error"]["code"] == "bad-request"

    def test_malformed_json_body(self):
        with running_server() as (_handle, client):
            import http.client

            connection = http.client.HTTPConnection(
                "127.0.0.1", client.port, timeout=30
            )
            try:
                connection.request(
                    "POST", "/v1/query", body=b"{not json",
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                document = json.loads(response.read().decode("utf-8"))
                assert response.status == 400
            finally:
                connection.close()
            assert document["error"]["code"] == "bad-request"

    @pytest.mark.parametrize(
        ("body", "reached"),
        [
            (
                b'{"target": "oversub", "params": {"timeslices_us": [Infinity]}}',
                "got inf",
            ),
            (
                b'{"target": "oversub", "params": {"timeslices_us": [1e300]}}',
                "got 1e+300",
            ),
            (b'{"target": "micro", "deadline_ms": NaN}', "unknown parameter"),
            (
                b'{"target": "oversub", "params": {"timeslices_us": [NaN]}}',
                "got nan",
            ),
            (
                b'{"target": "micro", "costs": {"arm": {"trap_to_el2": NaN}}}',
                "arm.trap_to_el2 must be an integer, got nan",
            ),
        ],
        ids=[
            "inf-timeslice", "huge-timeslice", "nan-deadline", "nan-timeslice",
            "nan-cost",
        ],
    )
    def test_non_finite_and_huge_numbers_are_bad_requests(self, body, reached):
        def reject_constant(name):
            raise AssertionError("response carries a non-JSON %s" % name)

        with running_server() as (_handle, client):
            import http.client

            connection = http.client.HTTPConnection(
                "127.0.0.1", client.port, timeout=30
            )
            try:
                connection.request(
                    "POST", "/v1/query", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                document = json.loads(
                    response.read().decode("utf-8"),
                    parse_constant=reject_constant,
                )
                assert response.status == 400
            finally:
                connection.close()
            assert document["error"]["code"] == "bad-request"
            # the message names the check the number reached
            assert reached in document["error"]["message"], document

    @pytest.mark.parametrize("target", ["table5", "report"])
    def test_too_many_transactions_is_a_bad_request(self, target):
        with running_server() as (handle, client):
            status, document = client.query_raw(
                {"target": target, "params": {"transactions": 257}}
            )
            assert status == 400
            assert document["error"]["code"] == "bad-request"
            assert "transactions" in document["error"]["message"]
            assert handle.broker.inflight_count() == 0

    def test_targets_route_lists_the_registry(self):
        with running_server() as (_handle, client):
            document = client.targets()
            names = [target["name"] for target in document["targets"]]
            assert names == list(queries.TARGETS)

    @pytest.mark.parametrize("path", ["/healthz", "/v1/targets"])
    def test_only_query_responses_carry_the_response_tag(self, path):
        with running_server() as (_handle, client):
            status, document = client.request("GET", path)
        assert status == 200
        assert document["ok"] is True
        # repro-service/1 tags query responses alone
        assert "schema" not in document

    def test_healthz_reports_admission_state(self):
        with running_server(admit_max=7) as (_handle, client):
            status, document = client.request("GET", "/healthz")
            assert status == 200
            assert document["ok"] is True
            assert document["active"] == 0
            assert document["admit_max"] == 7

    def test_metrics_route_validates(self):
        with running_server() as (_handle, client):
            client.query("micro", {"key": "kvm-arm"})
            document = client.metrics()
        assert protocol.check_metrics(document) == []
        assert check_document(document) == []
        assert document["metrics"]["service.queries"]["value"] == 1


class TestValidatorTool:
    """``protocol.check_response`` and the ``repro check`` dispatch."""

    def test_success_and_error_documents_validate(self):
        with running_server() as (_handle, client):
            good = client.query("micro", {"key": "kvm-arm"})
            _status, bad = client.query_raw({"target": "no-such-target"})
        assert protocol.check_response(good) == []
        assert protocol.check_response(bad) == []
        assert check_document(good) == check_document(bad) == []

    def test_tampered_result_is_caught(self):
        with running_server() as (_handle, client):
            document = client.query("micro", {"key": "kvm-arm"})
        document["result"]["Hypercall"] = 1
        findings = protocol.check_response(document)
        assert any("result_sha256 mismatch" in finding for finding in findings)
        assert check_document(document) == findings

    def test_unknown_schema_is_rejected(self):
        assert check_document({"schema": "bogus/9"}) != []

    def test_every_error_code_builds_a_valid_document(self):
        for code in protocol.ERROR_STATUS:
            document = protocol.error_document(code, "a %s failure" % code)
            assert protocol.check_response(document) == [], code
        unknown = protocol.error_document("no-such-code", "message")
        assert protocol.check_response(unknown) == ["unknown error code 'no-such-code'"]


class TestServiceConfig:
    def test_from_env_reads_the_knobs(self):
        config = ServiceConfig.from_env(
            environ={
                "REPRO_SERVE_HOST": "0.0.0.0",
                "REPRO_SERVE_PORT": "9000",
                "REPRO_ADMIT_MAX": "5",
            }
        )
        assert config.host == "0.0.0.0"
        assert config.port == 9000
        assert config.admit_max == 5

    def test_overrides_beat_env(self):
        config = ServiceConfig.from_env(
            environ={"REPRO_SERVE_PORT": "9000"}, port=0, admit_max=2
        )
        assert config.port == 0
        assert config.admit_max == 2

    def test_bad_env_values_raise(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig.from_env(environ={"REPRO_ADMIT_MAX": "zero"})
        with pytest.raises(ConfigurationError):
            ServiceConfig.from_env(environ={"REPRO_ADMIT_MAX": "0"})

    @pytest.mark.parametrize("name", ["query_budget", "drain_timeout", "bogus"])
    def test_an_unknown_override_raises(self, name):
        with pytest.raises(TypeError, match=name):
            ServiceConfig.from_env(environ={}, **{name: 2})

    def test_serve_port_must_be_a_tcp_port(self):
        with pytest.raises(ConfigurationError, match="REPRO_SERVE_PORT"):
            ServiceConfig.from_env(environ={"REPRO_SERVE_PORT": "70000"})
        assert ServiceConfig.from_env(environ={"REPRO_SERVE_PORT": "0"}).port == 0
        assert (
            ServiceConfig.from_env(environ={"REPRO_SERVE_PORT": "65535"}).port
            == 65535
        )
