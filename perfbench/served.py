"""The served workloads: a real server process and closed-loop clients.

``whatif`` and ``hot`` launch ``python -m repro serve --port 0
--cache-dir <fresh dir>`` (or ``traced_serve.py``, the same server with
spans or a profiler on) and drive it from this process with
``CLIENTS`` closed-loop callers: each sends its next query as soon as
its previous answer has been read, with no think time.  Latency is
timed at the caller, from sending the request to the last byte of the
response.
"""

import asyncio
import hashlib
import http.client
import itertools
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time

import layers
import mixes
import tracing
from tracing import START

CLIENTS = 2
#: set-ups per timed run; ``setup_s`` is their median
SETUP_REPEATS = 5
QUERY_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0
#: whatif queries re-run on the direct path after the window
WHATIF_SAMPLES = 3
#: operations in the count pass (whatif: one query per target)
COUNT_OPS = {"whatif": len(mixes.WHATIF_TARGETS), "hot": 50}
#: operations the profiled server runs
PROFILE_OPS = {"whatif": 14, "hot": 400}
#: the hot catalogue positions of the paper-error queries
_PAPER_POSITIONS = tuple(mixes.HOT_CATALOG.index(query) for query in mixes.PAPER_QUERIES)


def digest(result):
    """``result_sha256`` recomputed from a response's ``result``."""
    return hashlib.sha256(
        json.dumps(result, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def valid(status, document):
    return (
        status == 200
        and isinstance(document, dict)
        and document.get("ok") is True
        and digest(document.get("result")) == document.get("result_sha256")
    )


class Server:
    """One server process on an ephemeral port, ready when constructed."""

    def __init__(self, argv, ctx):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=ctx.root,
            env=ctx.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        ctx.servers.append(self)
        self.final = None
        self.port = self._await_announce()
        self._await_health()

    def _await_announce(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        stream = self.process.stderr
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                continue
            line = stream.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith("serving on http://"):
                return int(line.strip().rsplit(":", 1)[1])
        raise RuntimeError("server did not announce a port: %r" % (self.stop(),))

    def get(self, path):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()

    def _await_health(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, document = self.get("/healthz")
            except (OSError, ValueError):
                time.sleep(0.002)
                continue
            if status == 200 and document.get("ok"):
                return
        raise RuntimeError("server never answered /healthz")

    def counters(self):
        _status, document = self.get("/v1/metrics")
        return {name: row.get("value") for name, row in document["metrics"].items()}

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.process.pid, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self):
        """SIGTERM (graceful drain), wait, and keep the final metrics."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            _out, err = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            _out, err = self.process.communicate()
        text = err.decode("utf-8", "replace")
        for line in text.splitlines():
            if line.startswith("{") and '"final-metrics"' in line:
                metrics = json.loads(line)["metrics"]
                self.final = {name: row.get("value") for name, row in metrics.items()}
        return text


class Catalog:
    """Issue a fixed list of queries; keep every result."""

    def __init__(self, queries):
        self.queries = queries
        self.results = {}
        self.shas = {}

    def payload(self, index):
        return self.queries[index]

    def check(self, index, status, document):
        if not valid(status, document):
            return False
        self.results[index] = document["result"]
        self.shas[index] = document["result_sha256"]
        return True


class WhatIf:
    """The whatif stream from ``offset``; keeps each served sha."""

    def __init__(self, seed, offset=0):
        self.stream = mixes.WhatIfStream(seed)
        self.offset = offset
        self.shas = {}

    def payload(self, index):
        return self.stream[self.offset + index]

    def check(self, index, status, document):
        if not valid(status, document):
            return False
        self.shas[self.offset + index] = document["result_sha256"]
        return True


class Hot:
    """The hot stream from ``offset``; every answer must equal the
    direct path's for its catalogue query."""

    def __init__(self, seed, expected, offset=0):
        self.stream = mixes.HotStream(seed)
        self.expected = expected
        self.offset = offset

    def payload(self, index):
        return mixes.HOT_CATALOG[self.stream[self.offset + index]]

    def check(self, index, status, document):
        return valid(status, document) and (
            document["result_sha256"] == self.expected[self.stream[self.offset + index]]
        )


def drive(port, issuer, seconds=None, count=None, clients=CLIENTS):
    """Closed loop until ``seconds`` pass or ``count`` queries are sent.

    Returns ``(samples, start_ns, end_ns)``; a sample is ``(latency_ms,
    ok)``.  A timeout, a broken connection or a failed check is a
    sample with ``ok`` false.
    """
    from repro.service.client import AsyncServiceClient, RetryConfig

    async def main():
        client = AsyncServiceClient(port=port, retry=RetryConfig(retries=0))
        indices = itertools.count()
        samples = []
        start = tracing.now_ns()
        deadline = start + int(seconds * 1e9) if seconds is not None else None

        async def caller():
            while deadline is None or tracing.now_ns() < deadline:
                index = next(indices)
                if count is not None and index >= count:
                    return
                payload = issuer.payload(index)
                sent = tracing.now_ns()
                try:
                    status, document = await asyncio.wait_for(
                        client.request("POST", "/v1/query", payload), QUERY_TIMEOUT_S
                    )
                except Exception:  # a lost query is a failed sample, not a crash
                    status, document = None, None
                latency_ms = (tracing.now_ns() - sent) / 1e6
                samples.append((latency_ms, issuer.check(index, status, document)))

        await asyncio.gather(*(caller() for _ in range(clients)))
        return samples, start, tracing.now_ns()

    return asyncio.run(main())


def direct_shas(queries, cache_dir=None):
    """``result_sha256`` of each query computed with no server in the path."""
    from repro.runner.cache import ResultCache
    from repro.service import queries as service_queries

    cache = ResultCache(cache_dir) if cache_dir else None
    return [
        service_queries.direct_document(
            query["target"], query.get("params"), query.get("costs"), cache=cache
        )["result_sha256"]
        for query in queries
    ]


def _serve_argv(ctx):
    return [sys.executable, "-m", "repro", "serve", "--port", "0",
            "--cache-dir", ctx.fresh_dir("cache")]


def _launcher_argv(cache_dir, flag, out):
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_serve.py")
    return [sys.executable, launcher, "--cache-dir", cache_dir, flag, out]


def _warm(server):
    """Set-up for hot: every catalogue query once, in order."""
    catalog = Catalog(mixes.HOT_CATALOG)
    samples, _start, _end = drive(server.port, catalog, count=len(mixes.HOT_CATALOG), clients=1)
    return catalog, [ok for _latency, ok in samples]


def _sample_check(seed, issuer, problems):
    """Re-run a seeded sample of the window's whatif queries directly."""
    served = sorted(issuer.shas)
    picks = random.Random("sample:%d" % seed).sample(served, min(WHATIF_SAMPLES, len(served)))
    expected = direct_shas([issuer.stream[index] for index in picks])
    mismatched = [index for index, sha in zip(picks, expected) if issuer.shas[index] != sha]
    if mismatched:
        problems.append("whatif queries %s differ from the direct path" % mismatched)
    return len(picks), len(mismatched)


def ok_latencies(samples):
    return [latency for latency, ok in samples if ok]


def run(workload, seed, seconds, ctx, tail_pct):
    """Untraced run: every end-to-end metric."""
    problems = []
    server = None
    setups = []
    warm = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = Server(_serve_argv(ctx), ctx)
        if workload == "hot":
            warm = _warm(server)
        setups.append(time.perf_counter() - server.started)
    checks = failed_checks = 0
    if workload == "hot":
        catalog, oks = warm
        expected = direct_shas(mixes.HOT_CATALOG, ctx.fresh_dir("direct"))
        checks, failed_checks = len(oks), oks.count(False)
        if [catalog.shas.get(index) for index in range(len(expected))] != expected:
            problems.append("hot warm-up answers differ from the direct path")
        paper = [catalog.results[position] for position in _PAPER_POSITIONS]
        simulated = server.counters()["service.cells.simulated"]
        issuer = Hot(seed, expected)
    else:
        catalog = Catalog(mixes.PAPER_QUERIES)
        drive(server.port, catalog, count=len(mixes.PAPER_QUERIES), clients=1)
        paper = [catalog.results[index] for index in range(len(mixes.PAPER_QUERIES))]
        issuer = WhatIf(seed)
    samples, start, end = drive(server.port, issuer, seconds=seconds)
    if workload == "whatif":
        checks, failed_checks = _sample_check(seed, issuer, problems)
    rss_mb = server.peak_rss_mb()
    server.stop()
    if workload == "hot" and server.final["service.cells.simulated"] != simulated:
        problems.append("hot simulated cells during the window")
    latencies = ok_latencies(samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "ops_per_s": len(latencies) / ((end - start) / 1e9),
    }
    metrics.update(latency_metrics(latencies, tail_pct))
    metrics.update(mixes.paper_err_pct(*paper))
    return finish(metrics, samples, checks, failed_checks, problems)


def run_traced(workload, seed, seconds, ctx):
    """Traced run: every per-layer metric (see ``layers``)."""
    problems = []
    expected = direct_dir = None
    if workload == "hot":
        direct_dir = ctx.fresh_dir("direct")
        expected = direct_shas(mixes.HOT_CATALOG, direct_dir)

    def prepare(server):
        if workload == "hot":
            catalog, oks = _warm(server)
            if not all(oks) or [catalog.shas.get(i) for i in range(len(expected))] != expected:
                problems.append("hot warm-up answers differ from the direct path")
        else:
            drive(server.port, Catalog(mixes.PAPER_QUERIES),
                  count=len(mixes.PAPER_QUERIES), clients=1)

    def issuer(offset):
        return Hot(seed, expected, offset) if workload == "hot" else WhatIf(seed, offset)

    # the untraced reference the tracing overhead is measured against
    server = Server(_serve_argv(ctx), ctx)
    prepare(server)
    reference, _start, _end = drive(server.port, issuer(0), seconds=seconds / 2.0)
    server.stop()

    spans_path = ctx.path("spans-%s.json" % workload)
    server = Server(_launcher_argv(ctx.fresh_dir("cache"), "--spans", spans_path), ctx)
    prepare(server)
    count_ops = COUNT_OPS[workload]
    counted, count_start, count_end = drive(server.port, issuer(0), count=count_ops, clients=1)
    counters = server.counters()
    window_issuer = issuer(count_ops)
    samples, start, end = drive(server.port, window_issuer, seconds=seconds / 2.0)
    checks = failed_checks = 0
    if workload == "whatif":
        checks, failed_checks = _sample_check(seed, window_issuer, problems)
    server.stop()
    spans = tracing.load(spans_path)

    def in_window(span):
        return start <= span[START] <= end

    def in_count(span):
        return count_start <= span[START] <= count_end

    problems += layers.coverage_problems(workload, spans, in_window)
    latencies = ok_latencies(samples)
    metrics = layers.derive(spans, in_window, in_count, len(latencies))
    metrics["service.client.overhead_ms"] = (
        statistics.mean(latencies) - layers.handler_ms(spans, in_window) if latencies else 0.0
    )
    metrics["service.admit.rejects"] = server.final["service.admit.rejects"]
    metrics["service.cells.simulated"] = counters["service.cells.simulated"]
    metrics["service.cells.cached"] = counters["service.cells.cached"]
    metrics.update(overhead_metrics(ok_latencies(reference), latencies))

    # the profile split, on a separate server (cProfile would skew spans)
    profile_path = ctx.path("profile-%s.json" % workload)
    cache_dir = direct_dir if workload == "hot" else ctx.fresh_dir("cache")
    server = Server(_launcher_argv(cache_dir, "--profile", profile_path), ctx)
    profiled, _start, _end = drive(server.port, issuer(0), count=PROFILE_OPS[workload], clients=1)
    server.stop()
    with open(profile_path, encoding="utf-8") as handle:
        metrics.update(json.load(handle))
    everything = counted + samples + profiled + reference
    return finish(metrics, everything, checks, failed_checks, problems)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def latency_metrics(latencies, tail_pct):
    if not latencies:
        raise RuntimeError("no operation completed")
    return {"p50_ms": statistics.median(latencies), "tail_ms": percentile(latencies, tail_pct)}


def overhead_metrics(untraced, traced):
    untraced_p50 = statistics.median(untraced) if untraced else 0.0
    traced_p50 = statistics.median(traced) if traced else 0.0
    return {
        "trace.p50_ms": traced_p50,
        "trace.untraced_p50_ms": untraced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
    }


def finish(metrics, samples, checks, failed_checks, problems):
    failed = sum(1 for _latency, ok in samples if not ok) + failed_checks
    attempted = len(samples) + checks
    metrics["ok_pct"] = 100.0 * (attempted - failed) / attempted if attempted else 0.0
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems}
