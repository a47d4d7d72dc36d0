"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import reporting, suite
from repro.core.microbench import MicrobenchmarkSuite
from repro.core.testbed import ALL_KEYS, build_testbed
from repro.runner import pool
from repro.service import queries

#: the six report-table commands, with the cells each plans
TABLE_CELLS = {"table2": 4, "table3": 1, "table5": 3, "figure4": 4, "ablation": 2, "vhe": 4}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_micro_platform_choices(self):
        args = build_parser().parse_args(["micro", "--platform", "xen-arm"])
        assert args.platform == "xen-arm"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["micro", "--platform", "vmware"])

    def test_table5_transactions_flag(self):
        args = build_parser().parse_args(["table5", "--transactions", "7"])
        assert args.transactions == 7

    @pytest.mark.parametrize("command", ["table5", "bench"])
    def test_transactions_flags_stop_at_one_rx_queue(self, command, capsys):
        args = build_parser().parse_args([command, "--transactions", "256"])
        assert args.transactions == 256
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--transactions", "257"])
        assert "must be <= 256" in capsys.readouterr().err


class TestExecution:
    def test_micro_command(self, capsys):
        assert main(["micro", "--platform", "xen-arm"]) == 0
        out = capsys.readouterr().out
        assert "Hypercall" in out
        assert "376" in out

    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 5" in out

    def test_table3_command(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "VGIC Regs" in out
        assert "3250" in out

    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Microbenchmark" in out
        assert "kvm-arm" in out


class TestTraceCommand:
    def test_trace_target_choices(self):
        args = build_parser().parse_args(["trace", "table3", "-o", "t.json"])
        assert args.target == "table3" and args.output == "t.json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "table9"])

    def test_trace_prints_span_tree(self, capsys):
        assert main(["trace", "table3"]) == 0
        out = capsys.readouterr().out
        assert "hypercall" in out
        assert "split_mode_exit" in out
        assert "save_vgic" in out
        assert "hv.traps" in out

    def test_trace_writes_valid_perfetto_json(self, tmp_path, capsys):
        import json

        from repro.obs.export import check_trace

        path = tmp_path / "trace.json"
        assert main(["trace", "vm-switch", "--platform", "xen-arm", "-o", str(path)]) == 0
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events
        for event in events:
            for key in ("ph", "ts", "dur", "pid", "tid"):
                assert key in event
        assert any(event["ph"] == "X" for event in events)
        # The writer's own check, which CI runs through `repro check`, agrees.
        assert check_trace(document) == []
        assert main(["check", str(path)]) == 0


class TestCheckCommand:
    def test_each_kind_passes_and_a_tampered_copy_fails(self, tmp_path, capsys):
        """`repro check` exits 0 on a document of each kind as its writer
        made it, and 1 on a copy with one value tampered."""
        from tests.serviceutil import running_server

        written = {kind: tmp_path / (kind + ".json") for kind in ("bench", "trace", "response")}
        assert main(["bench", "--no-cache", "-o", str(written["bench"])]) == 0
        assert main(["trace", "table3", "-o", str(written["trace"])]) == 0
        assert main(["query", "--direct", "--target", "table3", "-o", str(written["response"])]) == 0
        documents = {kind: json.loads(path.read_text()) for kind, path in written.items()}
        with running_server() as (_handle, client):
            client.query("micro", {"key": "kvm-arm"})
            documents["metrics"] = client.metrics()
        capsys.readouterr()

        def tamper_trace(document):
            document["traceEvents"][-1]["ts"] = -1

        def tamper_metrics(document):
            document["metrics"]["service.queries"]["kind"] = "meter"

        tamperings = {
            "bench": lambda document: document["totals"].update(cells=0),
            "trace": tamper_trace,
            "response": lambda document: document["result"].update(total_cycles=1),
            "metrics": tamper_metrics,
        }
        for kind, document in documents.items():
            path = tmp_path / ("valid-%s.json" % kind)
            path.write_text(json.dumps(document))
            assert main(["check", str(path)]) == 0, capsys.readouterr().out
            tamperings[kind](document)
            path.write_text(json.dumps(document))
            assert main(["check", str(path)]) == 1, kind
            assert "FAIL %s" % path in capsys.readouterr().out


class TestEmitJson:
    def test_table3_emit_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "table3.json"
        assert main(["table3", "--emit-json", str(path)]) == 0
        data = json.loads(path.read_text())
        vgic = next(r for r in data["rows"] if r["register_state"] == "VGIC Regs")
        assert vgic["save_cycles"] == 3250
        assert data["total_cycles"] == sum(
            r["save_cycles"] + r["restore_cycles"] for r in data["rows"]
        ) + data["other_cycles"]
        # The rendered table still went to stdout.
        assert "VGIC Regs" in capsys.readouterr().out

    def test_table2_emit_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "table2.json"
        assert main(["table2", "--emit-json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert set(data) == {"kvm-arm", "kvm-x86", "xen-arm", "xen-x86"}
        assert data["kvm-arm"]["Hypercall"] > 0
        capsys.readouterr()


@pytest.fixture
def executions(monkeypatch):
    """Count ``pool.execute_cell`` calls, uncached."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    calls = []
    execute = pool.execute_cell

    def counting(spec, *args, **kwargs):
        calls.append(spec.id)
        return execute(spec, *args, **kwargs)

    monkeypatch.setattr(pool, "execute_cell", counting)
    return calls


class TestOnePath:
    """Table commands, ``--emit-json`` and the suite share the query
    registry: one plan, one run, one assembly per target."""

    @pytest.mark.parametrize(
        "argv, params",
        [([name], {}) for name in TABLE_CELLS]
        + [(["table5", "--transactions", "80"], {"transactions": 80})],
        ids=list(TABLE_CELLS) + ["table5-80"],
    )
    def test_emit_json_is_the_registry_result(self, argv, params, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(argv + ["--emit-json", str(path)]) == 0
        capsys.readouterr()
        result = queries.direct_document(argv[0], params)["result"]
        assert path.read_text() == json.dumps(result, indent=1, sort_keys=True) + "\n"

    def test_table_commands_join_into_the_full_report(self, capsys):
        tables = []
        for name in TABLE_CELLS:
            assert main([name]) == 0
            out = capsys.readouterr().out
            assert out.endswith("\n")
            tables.append(out[:-1])
        assert "\n\n".join(tables) == suite.full_report()

    @pytest.mark.parametrize("name, cells", TABLE_CELLS.items())
    def test_each_cell_runs_once(self, name, cells, executions, tmp_path, capsys):
        assert main([name, "--emit-json", str(tmp_path / "out.json")]) == 0
        capsys.readouterr()
        assert len(executions) == cells
        assert len(set(executions)) == cells

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_micro_prints_the_platform_column(self, key, capsys):
        measured = MicrobenchmarkSuite(build_testbed(key)).run_all()
        expected = reporting.render_table(
            ["Microbenchmark", "cycles"],
            [[name, "%d" % cycles] for name, cycles in measured.items()],
            title="Microbenchmarks on %s" % key,
        )
        assert main(["micro", "--platform", key]) == 0
        assert capsys.readouterr().out == expected + "\n"
