"""CLI surface for the service: serve/query exit codes.

Exercises ``python -m repro query`` in-process via ``cli.main`` — the
direct path, the served path against a live in-thread server, the
health probe and structured error exits — and checks every artifact
with ``repro.cli.check_document``, the check ``python -m repro check``
runs in the CI job.
"""

import json

import pytest

from repro import cli
from repro.errors import ConfigurationError
from repro.runner.resilience import payload_digest
from repro.service import queries
from repro.service.client import ServiceClient

from tests.serviceutil import running_server


def _direct_sha(target, params=None, costs=None):
    query, _ = queries.canonicalize(
        {"target": target, "params": params or {}, "costs": costs or {}}
    )
    result, _stats = queries.run_direct(query)
    return payload_digest(result)


class TestQueryDirect:
    def test_direct_query_writes_a_valid_document(self, tmp_path, capsys):
        out = tmp_path / "table2.json"
        status = cli.main(
            ["query", "--direct", "--target", "table2", "-o", str(out)]
        )
        assert status == 0
        document = json.loads(out.read_text())
        assert cli.check_document(document) == []
        assert document["result_sha256"] == _direct_sha("table2")
        stderr = capsys.readouterr().err
        assert document["result_sha256"][:16] in stderr

    def test_direct_query_prints_to_stdout_without_output(self, capsys):
        status = cli.main(
            [
                "query", "--direct", "--target", "micro",
                "--params", '{"key": "xen-arm"}',
            ]
        )
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert document["result_sha256"] == _direct_sha(
            "micro", {"key": "xen-arm"}
        )

    def test_direct_query_with_costs_override(self, capsys):
        costs = {"arm": {"trap_to_el2": 152}}
        status = cli.main(
            [
                "query", "--direct", "--target", "micro",
                "--params", '{"key": "kvm-arm"}',
                "--costs", json.dumps(costs),
            ]
        )
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert document["result_sha256"] == _direct_sha(
            "micro", {"key": "kvm-arm"}, costs
        )

    def test_bad_target_exits_nonzero(self, capsys):
        status = cli.main(["query", "--direct", "--target", "bogus"])
        assert status == 1
        assert "bogus" in capsys.readouterr().err

    def test_huge_timeslice_exits_nonzero(self, capsys):
        status = cli.main(
            [
                "query", "--direct", "--target", "oversub",
                "--params", '{"timeslices_us": [1e300]}',
            ]
        )
        assert status == 1
        assert "timeslices_us" in capsys.readouterr().err

    def test_too_many_transactions_exits_nonzero(self, capsys):
        status = cli.main(
            [
                "query", "--direct", "--target", "table5",
                "--params", '{"transactions": 257}',
            ]
        )
        assert status == 1
        assert "'transactions' for target 'table5' must be <= 256" in (
            capsys.readouterr().err
        )

    def test_malformed_params_json_aborts(self):
        with pytest.raises(SystemExit):
            cli.main(
                ["query", "--direct", "--target", "micro", "--params", "{oops"]
            )


class TestQueryServed:
    def test_served_query_matches_direct(self, capsys):
        with running_server() as (handle, _client):
            status = cli.main(
                [
                    "query", "--port", str(handle.port),
                    "--target", "micro", "--params", '{"key": "kvm-arm"}',
                ]
            )
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert cli.check_document(document) == []
        assert document["result_sha256"] == _direct_sha(
            "micro", {"key": "kvm-arm"}
        )

    def test_budget_reject_exits_one_with_error_document(self, capsys):
        with running_server() as (handle, _client):
            status = cli.main(
                [
                    "query", "--port", str(handle.port),
                    "--target", "table2", "--budget-cells", "2",
                ]
            )
        assert status == 1
        document = json.loads(capsys.readouterr().err)
        assert document["error"]["code"] == "budget-exceeded"
        assert cli.check_document(document) == []

    def test_huge_timeslice_exits_one_with_bad_request(self, capsys):
        with running_server() as (handle, _client):
            status = cli.main(
                [
                    "query", "--port", str(handle.port), "--target", "oversub",
                    "--params", '{"timeslices_us": [1e300]}',
                ]
            )
        assert status == 1
        document = json.loads(capsys.readouterr().err)
        assert document["error"]["code"] == "bad-request"
        assert cli.check_document(document) == []

    def test_unreachable_server_exits_one(self, capsys):
        status = cli.main(
            ["query", "--port", "1", "--target", "table3", "--timeout", "5"]
        )
        assert status == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_health_probe(self, capsys):
        with running_server() as (handle, _client):
            status = cli.main(
                ["query", "--port", str(handle.port), "--health"]
            )
            assert status == 0
            assert capsys.readouterr().out.strip() == "ok"
        status = cli.main(["query", "--port", "1", "--health"])
        assert status == 1
        assert capsys.readouterr().out.strip() == "unreachable"

    def test_metrics_flag_prints_a_valid_snapshot(self, capsys):
        with running_server() as (handle, client):
            client.query("micro", {"key": "kvm-arm"})
            status = cli.main(
                ["query", "--port", str(handle.port), "--metrics"]
            )
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert cli.check_document(document) == []

    def test_query_without_target_aborts(self):
        with pytest.raises(SystemExit):
            cli.main(["query", "--port", "1"])


class TestPortEnvironment:
    def test_non_integer_port_is_a_clear_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SERVE_PORT", "abc")
        with pytest.raises(ConfigurationError, match="REPRO_SERVE_PORT"):
            ServiceClient()
        assert cli.main(["query", "--health"]) == 1
        assert "REPRO_SERVE_PORT='abc' is not an integer" in capsys.readouterr().err

    def test_direct_query_reads_no_port_setting(self, monkeypatch, capsys):
        argv = ["query", "--direct", "--target", "table3"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        monkeypatch.setenv("REPRO_SERVE_PORT", "abc")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("text", ["0", "65536"])
    def test_client_port_must_be_a_real_port(self, text, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", text)
        with pytest.raises(ConfigurationError, match="REPRO_SERVE_PORT"):
            ServiceClient()

    @pytest.mark.parametrize(
        "argv", [["serve", "--port", "65536"], ["query", "--port", "0", "--health"]]
    )
    def test_port_flags_take_tcp_ports_only(self, argv, capsys):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert "must be in" in capsys.readouterr().err

    def test_serve_rejects_an_out_of_range_port(self, monkeypatch, capsys):
        from repro.service import server

        def never(*_args, **_kwargs):
            raise AssertionError("serve started with a bad port")

        monkeypatch.setattr(server, "run_forever", never)
        monkeypatch.setenv("REPRO_SERVE_PORT", "70000")
        assert cli.main(["serve"]) == 1
        assert "REPRO_SERVE_PORT must be in 0..65535" in capsys.readouterr().err

