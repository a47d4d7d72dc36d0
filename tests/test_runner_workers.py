"""Property-style determinism across interpreter processes.

A cell simulated in a fresh interpreter must return exactly the same
payload (cycles, tables, floats and all) as the same cell simulated in
this process — for *every* cell in the bench grid.  This is the
property that makes the shared cache sound: a server, a bench run and
a direct query each write entries the others read.  If it ever breaks,
some model picked up ambient per-process state (hash seed, import
order, wall clock) and determinism is gone.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.runner import cells, execute_cell, run_cells
from repro.sim.engine import Engine

ALL_CELLS = cells.bench_cells()

#: runs the bench grid in a fresh interpreter and prints one JSON row
#: per cell: id, payload and simulation accounting
_CHILD = """
import json
from repro.runner import cells, run_cells
rows = [
    {"id": r.spec.id, "payload": r.payload,
     "simulated_cycles": r.simulated_cycles, "engines": r.engines}
    for r in run_cells(cells.bench_cells()).values()
]
print(json.dumps(rows))
"""


@pytest.fixture(scope="module")
def in_process_results():
    return run_cells(ALL_CELLS)


@pytest.fixture(scope="module")
def subprocess_results():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="random")
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return {row["id"]: row for row in json.loads(completed.stdout)}


@pytest.mark.parametrize("spec", ALL_CELLS, ids=[spec.id for spec in ALL_CELLS])
def test_subprocess_payload_matches_in_process(
    spec, in_process_results, subprocess_results
):
    assert subprocess_results[spec.id]["payload"] == in_process_results[spec.id].payload


@pytest.mark.parametrize("spec", ALL_CELLS, ids=[spec.id for spec in ALL_CELLS])
def test_subprocess_sim_accounting_matches_in_process(
    spec, in_process_results, subprocess_results
):
    # Simulated cycles and engine counts are simulation facts, not host
    # facts — they must not depend on which process ran the cell.
    child = subprocess_results[spec.id]
    assert child["simulated_cycles"] == in_process_results[spec.id].simulated_cycles
    assert child["engines"] == in_process_results[spec.id].engines


def test_grid_covers_every_section_and_sweep():
    kinds = {spec.kind for spec in ALL_CELLS}
    assert kinds == {"micro", "breakdown", "tcprr", "appcol", "ablation", "oversub"}
    oversub_points = [spec for spec in ALL_CELLS if spec.kind == "oversub"]
    assert len(oversub_points) == len(cells.OVERSUB_TIMESLICES_US) * 4


class TestEngineAccounting:
    def test_execute_cell_counts_engines_and_cycles(self):
        result = execute_cell(cells.micro("kvm-arm"))
        assert result.engines > 0
        assert result.simulated_cycles > 0
        assert result.source == "run"

    def test_created_hook_restored_after_execution(self):
        assert Engine.created_hook is None
        execute_cell(cells.breakdown())
        assert Engine.created_hook is None

    def test_created_hook_restored_after_failure(self):
        from repro.runner.resilience import CellExecutionError

        assert Engine.created_hook is None
        with pytest.raises(CellExecutionError) as excinfo:
            execute_cell(cells.CellSpec("no-such-kind"))
        assert Engine.created_hook is None
        # the wrapped failure names the original error
        assert excinfo.value.error_type == "ConfigurationError"

    def test_failed_cell_records_partial_engine_accounting(self, monkeypatch):
        # regression: a cell that raises *mid-run* (after building
        # engines) must still restore the hook and carry its partial
        # cycle/engine counts in the failure — not silently drop them.
        from repro.runner.resilience import CellExecutionError

        def _boom(_params):
            engine = Engine()
            engine.schedule(7, lambda: None)
            engine.run()
            raise RuntimeError("mid-run boom")

        monkeypatch.setitem(cells.CELL_KINDS, "boom", _boom)
        assert Engine.created_hook is None
        with pytest.raises(CellExecutionError) as excinfo:
            execute_cell(cells.CellSpec("boom"))
        assert Engine.created_hook is None
        assert excinfo.value.engines == 1
        assert excinfo.value.simulated_cycles == 7
        assert "mid-run boom" in excinfo.value.traceback_text

    def test_hook_sees_every_engine(self):
        created = []
        previous = Engine.created_hook
        Engine.created_hook = created.append
        try:
            first = Engine()
            second = Engine()
        finally:
            Engine.created_hook = previous
        assert created == [first, second]
