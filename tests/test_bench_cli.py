"""CLI tests for ``python -m repro bench`` and the bench-document schema."""

import json

import pytest

from repro.cli import build_parser, main
from repro.runner.bench import check_document


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
        # a failed cell fails the run and a bad cache entry is a miss:
        # bench has no resilience options at all
        args = build_parser().parse_args(["bench"])
        assert sorted(vars(args)) == [
            "cache_dir",
            "command",
            "no_cache",
            "output",
            "transactions",
        ]

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
        assert document["cache"]["write_errors"] == 0
        assert set(document) == {
            "schema",
            "model_fingerprint",
            "cache",
            "cells",
            "totals",
            "report_sha256",
        }
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
        # every other cell still ran once before the run failed
        from repro.runner import cells

        assert sorted(calls) == sorted(spec.id for spec in cells.bench_cells())

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


class TestValidateBenchTool:
    """``runner.bench.check_document`` and ``repro check`` on bench documents."""

    def test_valid_document_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--no-cache"]) == 0
        capsys.readouterr()
        path = tmp_path / "BENCH_suite.json"
        assert check_document(json.loads(path.read_text())) == []
        assert main(["check", str(path)]) == 0

    def test_corrupt_documents_fail(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["check", str(missing)]) == 1
        assert "cannot load" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro-bench/1", "cache": "nope"}))
        problems = check_document(json.loads(bad.read_text()))
        assert any("cache" in problem for problem in problems)
        assert any("cells" in problem for problem in problems)
        assert main(["check", str(bad)]) == 1

    def test_total_cycle_mismatch_detected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--no-cache"]) == 0
        capsys.readouterr()
        document = json.loads((tmp_path / "BENCH_suite.json").read_text())
        document["totals"]["simulated_cycles"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(document))
        assert any(
            "simulated_cycles" in problem
            for problem in check_document(json.loads(tampered.read_text()))
        )
        assert main(["check", str(tampered)]) == 1

    def test_usage_without_args(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

