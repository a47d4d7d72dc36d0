"""Service protocol layer: canonicalization, query keys, error docs.

These are the contracts the rest of the service tests build on: two
requests that mean the same thing must produce the same query key (the
coalescing primitive), anything malformed must come back as the stable
``bad-request`` document, and the cost-override layer must be scoped,
validated, and restorable.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.hw import costs as hw_costs
from repro.runner import cells
from repro.service import protocol, queries
from repro.service.server import ServiceConfig

from tests.serviceutil import running_server

TOOLS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load_validator():
    spec = importlib.util.spec_from_file_location(
        "validate_service", TOOLS_DIR / "validate_service.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCanonicalization:
    def test_equivalent_requests_share_a_key(self):
        spelled_out, _ = queries.canonicalize(
            {"target": "table5", "params": {"transactions": 40}, "costs": {}}
        )
        defaulted, _ = queries.canonicalize({"target": "table5"})
        assert spelled_out.key == defaulted.key
        assert spelled_out.params == {"transactions": 40}

    def test_key_order_is_irrelevant(self):
        one, _ = queries.canonicalize(
            {"params": {"key": "xen-arm"}, "target": "micro"}
        )
        two, _ = queries.canonicalize(
            {"target": "micro", "params": {"key": "xen-arm"}}
        )
        assert one.key == two.key

    def test_costs_enter_the_key(self):
        plain, _ = queries.canonicalize({"target": "micro"})
        what_if, _ = queries.canonicalize(
            {"target": "micro", "costs": {"arm": {"trap_to_el2": 152}}}
        )
        assert plain.key != what_if.key

    def test_request_options_stay_out_of_the_key(self):
        plain, plain_options = queries.canonicalize({"target": "micro"})
        bounded, options = queries.canonicalize(
            {"target": "micro", "deadline_ms": 500, "budget_cells": 3}
        )
        assert plain.key == bounded.key
        assert plain_options == {"budget_cells": None, "deadline_ms": None}
        assert options == {"budget_cells": 3, "deadline_ms": 500.0}

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"target": "no-such-target"},
            {"target": "micro", "params": {"key": "not-a-platform"}},
            {"target": "micro", "params": {"bogus": 1}},
            {"target": "micro", "unexpected": True},
            {"target": "table5", "params": {"transactions": 0}},
            {"target": "table2", "params": {"keys": []}},
            {"target": "table2", "params": {"keys": ["kvm-arm", "kvm-arm"]}},
            {"target": "oversub", "params": {"timeslices_us": [0]}},
            {"target": "ablation", "params": {"workloads": ["NotAWorkload"]}},
            {"target": "micro", "costs": {"riscv": {}}},
            {"target": "micro", "costs": {"arm": {"trap_to_el2": -1}}},
            {"target": "micro", "costs": {"arm": {"no_such_cost": 5}}},
            {"target": "micro", "deadline_ms": 0},
            {"target": "micro", "budget_cells": 0},
        ],
    )
    def test_bad_requests_raise(self, payload):
        with pytest.raises(ConfigurationError):
            queries.canonicalize(payload)

    def test_plan_pairs_base_and_exec_specs(self):
        query, _ = queries.canonicalize(
            {"target": "table2", "costs": {"arm": {"trap_to_el2": 152}}}
        )
        base, execs = queries.plan(query)
        assert len(base) == len(execs) == 4
        for base_spec, exec_spec in zip(base, execs):
            assert cells.strip_cost_overrides(exec_spec) == base_spec
            assert cells.COSTS_PARAM in exec_spec.params_dict()

    def test_plan_without_costs_is_identity(self):
        query, _ = queries.canonicalize({"target": "table2"})
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

    def test_targets_route_lists_the_registry(self):
        with running_server() as (_handle, client):
            document = client.targets()
            names = [target["name"] for target in document["targets"]]
            assert names == list(queries.TARGETS)

    def test_healthz_reports_admission_state(self):
        with running_server(admit_max=7) as (_handle, client):
            status, document = client.request("GET", "/healthz")
            assert status == 200
            assert document["ok"] is True
            assert document["active"] == 0
            assert document["admit_max"] == 7

    def test_metrics_route_validates(self):
        validator = _load_validator()
        with running_server() as (_handle, client):
            client.query("micro", {"key": "kvm-arm"})
            document = client.metrics()
        assert validator.validate_document(document) == []
        assert document["metrics"]["service.queries"]["value"] == 1


class TestValidatorTool:
    def test_success_and_error_documents_validate(self):
        validator = _load_validator()
        with running_server() as (_handle, client):
            good = client.query("micro", {"key": "kvm-arm"})
            _status, bad = client.query_raw({"target": "no-such-target"})
        assert validator.validate_document(good) == []
        assert validator.validate_document(bad) == []

    def test_tampered_result_is_caught(self):
        validator = _load_validator()
        with running_server() as (_handle, client):
            document = client.query("micro", {"key": "kvm-arm"})
        document["result"]["Hypercall"] = 1
        findings = validator.validate_document(document)
        assert any("result_sha256 mismatch" in finding for finding in findings)

    def test_unknown_schema_is_rejected(self):
        validator = _load_validator()
        assert validator.validate_document({"schema": "bogus/9"}) != []


class TestServiceConfig:
    def test_from_env_reads_the_knobs(self):
        config = ServiceConfig.from_env(
            environ={
                "REPRO_SERVE_HOST": "0.0.0.0",
                "REPRO_SERVE_PORT": "9000",
                "REPRO_ADMIT_MAX": "5",
                "REPRO_QUERY_BUDGET": "12",
            }
        )
        assert config.host == "0.0.0.0"
        assert config.port == 9000
        assert config.admit_max == 5
        assert config.query_budget == 12

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
