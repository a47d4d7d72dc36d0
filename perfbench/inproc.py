"""The ``report`` workload: the default paper report, in this process.

One caller regenerates ``repro.core.suite.full_report()`` back to back
(serial and uncached: the default plan), so nearly all host time is in
the model (``sim``/``hw``/``hv``) and the service and the cache are
bypassed.  Every report must hash to ``REPORT_SHA256``.
"""

import cProfile
import hashlib
import pstats
import resource
import statistics
import subprocess
import sys
import time

import layers
import mixes
import served
import tracing
from tracing import REQUEST

REPORT_SHA256 = "506bcac1f2ebd268c475acd778a53c6fcdeadb15db143102d8077468a7f46725"
#: fresh interpreters timed per run; ``setup_s`` is their median
SETUP_REPEATS = 7
#: reports run under cProfile for the profile split
PROFILE_OPS = 3


def _setup_s(ctx):
    """Fresh interpreter to ``repro`` imported, median of several."""
    argv = [sys.executable, "-c", "import repro.core.suite"]
    subprocess.run(argv, cwd=ctx.root, env=ctx.env, check=True)  # bytecode warm
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ctx.root, env=ctx.env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _window(seconds, recorder=None):
    """Reports back to back for ``seconds``; returns ``[(ms, ok)]``."""
    from repro.core import suite

    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if recorder is not None:
            recorder.request.set(len(samples))
        start = time.perf_counter()
        text = suite.full_report()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        ok = hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256
        samples.append((elapsed_ms, ok))
    return samples


def run(seconds, ctx, tail_pct):
    setup_s = _setup_s(ctx)
    from repro.core import suite

    suite.full_report()  # lazy set-up outside the timed window
    start = time.perf_counter()
    samples = _window(seconds)
    elapsed = time.perf_counter() - start
    latencies = served.ok_latencies(samples)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(served.latency_metrics(latencies, tail_pct))
    metrics.update(
        mixes.paper_err_pct(suite.table2_data(), suite.table5_data(), suite.figure4_data())
    )
    return served.finish(metrics, samples, 0, 0, [])


def run_traced(seconds, ctx):
    from repro.core import suite

    suite.full_report()
    reference = _window(seconds / 2.0)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(PROFILE_OPS):
        suite.full_report()
    profile.disable()

    recorder = tracing.Recorder()
    layers.install_all(recorder)
    samples = _window(seconds / 2.0, recorder)
    recorder.dump(ctx.path("spans-report.json"))
    spans = recorder.spans

    def in_window(_span):
        return True

    def in_count(span):
        return span[REQUEST] == 0

    problems = layers.coverage_problems("report", spans, in_window)
    latencies = served.ok_latencies(samples)
    metrics = dict.fromkeys(
        ("service.client.overhead_ms", "service.admit.rejects",
         "service.cells.simulated", "service.cells.cached"),
        0,
    )
    metrics.update(layers.derive(spans, in_window, in_count, len(latencies)))
    metrics.update(served.overhead_metrics(served.ok_latencies(reference), latencies))
    metrics.update(layers.self_pct(pstats.Stats(profile)))
    return served.finish(metrics, reference + samples, 0, 0, problems)
