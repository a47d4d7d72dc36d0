"""Shared benchmark configuration.

Each benchmark module regenerates one table or figure of the paper and
prints it, so `pytest benchmarks/ --benchmark-enable --benchmark-only -s`
reproduces the whole evaluation section.  Tier-1 runs these modules
with timing off (`--benchmark-disable` in pyproject.toml): the paper
checks gate every change, the timings are opt-in.  Simulations are
deterministic, so a single round per benchmark is meaningful.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run the benchmarked callable exactly once (deterministic sims)."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
