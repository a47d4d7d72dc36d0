"""CLI tests for ``python -m repro bench`` and the bench-document schema."""

import importlib.util
import json
import pathlib

import pytest

from repro.cli import build_parser, main

TOOLS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load_validate_bench():
    spec = importlib.util.spec_from_file_location(
        "validate_bench", TOOLS_DIR / "validate_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.no_cache is False
        assert args.cache_dir == ".repro-cache"
        assert args.output == "BENCH_suite.json"
        assert args.transactions == 40

    def test_no_cache_flag(self):
        assert build_parser().parse_args(["bench", "--no-cache"]).no_cache is True

    def test_resilience_flag_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.keep_going is False
        assert args.cache_verify is False

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args(["bench", "--keep-going"])
        assert args.keep_going is True

    @pytest.mark.parametrize(
        "argv",
        [
            # the runner runs every cell once, in process: its old
            # worker, retry and journal knobs are usage errors now
            ["bench", "--jobs", "2"],
            ["bench", "--max-retries", "0"],
            ["bench", "--cell-timeout", "2.5"],
            ["bench", "--resume"],
            ["bench", "--run-id", "run-1"],
            # the compiled fast lane is gone with its switch
            ["bench", "--no-fastpath"],
        ],
    )
    def test_bad_resilience_values_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


class TestExecution:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_bench_prints_report_and_writes_document(self, workdir, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "Table II: Microbenchmark Measurements" in out
        assert "Section VI: application overhead" in out

        document = json.loads((workdir / "BENCH_suite.json").read_text())
        assert document["schema"] == "repro-bench/1"
        assert "perf" not in document  # the fast-lane scoreboard is gone
        assert document["cache"] == {
            "enabled": True,
            "directory": ".repro-cache",
            "hits": 0,
            "misses": document["totals"]["cells"],
            "quarantined": 0,
            "write_errors": 0,
        }
        assert document["totals"]["cells"] == len(document["cells"])
        assert document["totals"]["simulated_cycles"] > 0
        kinds = {cell["kind"] for cell in document["cells"]}
        assert "oversub" in kinds and "micro" in kinds

    def test_bench_report_matches_suite_full_report(self, workdir, capsys):
        from repro.core import suite

        assert main(["bench", "--no-cache", "-o", "doc.json"]) == 0
        out = capsys.readouterr().out
        assert out == suite.full_report() + "\n"

    def test_warm_rerun_hits_cache_and_reproduces_stdout(self, workdir, capsys):
        assert main(["bench", "-o", "cold.json"]) == 0
        cold_out = capsys.readouterr().out
        assert main(["bench", "-o", "warm.json"]) == 0
        warm_out = capsys.readouterr().out

        assert warm_out == cold_out
        cold = json.loads((workdir / "cold.json").read_text())
        warm = json.loads((workdir / "warm.json").read_text())
        assert warm["cache"]["hits"] == cold["totals"]["cells"]
        assert warm["cache"]["misses"] == 0
        assert all(cell["source"] == "cache" for cell in warm["cells"])
        assert warm["report_sha256"] == cold["report_sha256"]
        assert warm["totals"]["simulated_cycles"] == cold["totals"]["simulated_cycles"]

    def test_no_cache_leaves_no_cache_directory(self, workdir, capsys):
        assert main(["bench", "--no-cache"]) == 0
        capsys.readouterr()
        assert not (workdir / ".repro-cache").exists()
        document = json.loads((workdir / "BENCH_suite.json").read_text())
        assert document["cache"]["enabled"] is False
        assert document["cache"]["hits"] == 0

    def test_fault_free_document_reports_quiet_resilience(self, workdir, capsys):
        assert main(["bench"]) == 0
        capsys.readouterr()
        document = json.loads((workdir / "BENCH_suite.json").read_text())
        assert document["cache"]["quarantined"] == 0
        assert document["cache"]["write_errors"] == 0
        assert "failed_cells" not in document
        assert "partial" not in document
        assert all(cell["source"] == "run" for cell in document["cells"])


class TestResilienceExecution:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def _doom_breakdown(self, monkeypatch):
        """Make the ``breakdown`` cell raise; returns the execution log."""
        from repro.runner import cells

        calls = []
        real_run_cell = cells.run_cell

        def run_cell(spec):
            calls.append(spec.id)
            if spec.id == "breakdown":
                raise RuntimeError("injected breakdown failure")
            return real_run_cell(spec)

        monkeypatch.setattr(cells, "run_cell", run_cell)
        return calls

    def test_exhausted_cell_aborts_with_structured_stderr(
        self, workdir, monkeypatch, capsys
    ):
        calls = self._doom_breakdown(monkeypatch)
        assert main(["bench", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "1 cell(s) failed" in err
        assert "breakdown: RuntimeError: injected breakdown failure" in err
        assert calls.count("breakdown") == 1  # no retry
        assert not (workdir / "BENCH_suite.json").exists()

    def test_keep_going_emits_partial_document(self, workdir, monkeypatch, capsys):
        self._doom_breakdown(monkeypatch)
        status = main(["bench", "--no-cache", "--keep-going"])
        assert status == 1
        captured = capsys.readouterr()
        assert "[Table III omitted: cell breakdown failed" in captured.out
        assert "Table II: Microbenchmark Measurements" in captured.out  # survivors
        assert "report is partial (--keep-going)" in captured.err

        document = json.loads((workdir / "BENCH_suite.json").read_text())
        assert document["partial"] is True
        (failed,) = document["failed_cells"]
        assert failed["id"] == "breakdown"
        assert failed["error"] == "RuntimeError: injected breakdown failure"
        assert "attempts" not in failed
        assert all(cell["id"] != "breakdown" for cell in document["cells"])

        validator = _load_validate_bench()
        assert validator.validate(str(workdir / "BENCH_suite.json")) == []

    def test_rerun_on_partial_cache_simulates_only_missing_cells(
        self, workdir, capsys
    ):
        # the cache is the resume: an interrupted bench left some cells
        # behind, and the rerun simulates exactly the rest
        from repro.runner import ResultCache, cells, run_cells
        from tests.test_obs_invariance import GOLDEN_FULL_REPORT_SHA256

        grid = cells.bench_cells()
        done = grid[::2]
        run_cells(done, cache=ResultCache(workdir / ".repro-cache"))

        assert main(["bench"]) == 0
        capsys.readouterr()
        document = json.loads((workdir / "BENCH_suite.json").read_text())
        simulated = {cell["id"] for cell in document["cells"] if cell["source"] == "run"}
        assert simulated == {spec.id for spec in grid} - {spec.id for spec in done}
        assert document["cache"]["hits"] == len(done)
        assert document["cache"]["misses"] == len(grid) - len(done)
        assert document["report_sha256"] == GOLDEN_FULL_REPORT_SHA256

    def test_cache_verify_quarantines_and_signals(self, workdir, capsys):
        assert main(["bench"]) == 0
        capsys.readouterr()
        entry = next((workdir / ".repro-cache").glob("??/*.json"))
        entry.write_bytes(b"\x00poisoned")

        assert main(["bench", "--cache-verify"]) == 1
        captured = capsys.readouterr()
        assert "quarantined" in captured.out
        assert "1 quarantined" in captured.err
        assert (workdir / ".repro-cache" / "quarantine").is_dir()

        # the store is clean now: a second verify passes
        assert main(["bench", "--cache-verify"]) == 0
        captured = capsys.readouterr()
        assert "0 quarantined" in captured.err


class TestValidateBenchTool:
    def test_valid_document_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--no-cache"]) == 0
        capsys.readouterr()
        validator = _load_validate_bench()
        assert validator.validate(str(tmp_path / "BENCH_suite.json")) == []
        assert validator.main([str(tmp_path / "BENCH_suite.json")]) == 0

    def test_corrupt_documents_fail(self, tmp_path):
        validator = _load_validate_bench()
        missing = tmp_path / "missing.json"
        assert validator.validate(str(missing))

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro-bench/1", "cache": "nope"}))
        problems = validator.validate(str(bad))
        assert any("cache" in problem for problem in problems)
        assert any("cells" in problem for problem in problems)
        assert validator.main([str(bad)]) == 1

    def test_total_cycle_mismatch_detected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--no-cache"]) == 0
        capsys.readouterr()
        document = json.loads((tmp_path / "BENCH_suite.json").read_text())
        document["totals"]["simulated_cycles"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(document))
        validator = _load_validate_bench()
        assert any(
            "simulated_cycles" in problem
            for problem in validator.validate(str(tampered))
        )

    def test_usage_without_args(self):
        validator = _load_validate_bench()
        assert validator.main([]) == 2

