"""Command-line interface: regenerate any of the paper's artifacts.

Usage:
    python -m repro table2             # microbenchmarks, 4 platforms
    python -m repro table3             # KVM ARM hypercall breakdown
    python -m repro table5             # TCP_RR decomposition
    python -m repro figure4            # application benchmarks
    python -m repro ablation           # Section V IRQ distribution
    python -m repro vhe                # Section VI VHE comparison
    python -m repro figures            # Figures 1-3/5 as ASCII
    python -m repro all                # the whole evaluation section
    python -m repro micro --platform xen-arm   # one platform's column
    python -m repro lint               # model-integrity static analysis
    python -m repro lint --flow        # + CFG path-symmetry rules
    python -m repro lint --spec        # + path-spec golden-file rules
    python -m repro spec extract       # (re)write specs/*.json goldens
    python -m repro trace table3 -o trace.json   # Perfetto span trace
    python -m repro bench              # whole grid + BENCH_suite.json
    python -m repro sanitize suite     # SimSan tie-order race sweep
    python -m repro serve              # what-if query server (asyncio)
    python -m repro query --target table2      # query a running server
    python -m repro query --direct --target table2  # same, no server
    python -m repro serve-bench        # service load-profile meta-bench

Table commands accept ``--emit-json PATH`` to write the underlying
results as JSON alongside the rendered table.
"""

import argparse
import json
import os
import sys

from repro.core import reporting, suite
from repro.core.microbench import MicrobenchmarkSuite
from repro.core.testbed import ALL_KEYS, build_testbed


def _cmd_micro(args):
    results = MicrobenchmarkSuite(build_testbed(args.platform)).run_all()
    rows = [[name, "%d" % cycles] for name, cycles in results.items()]
    print(
        reporting.render_table(
            ["Microbenchmark", "cycles"],
            rows,
            title="Microbenchmarks on %s" % args.platform,
        )
    )


def _cmd_figures(_args):
    for name in ("figure1", "figure2", "figure3", "figure5"):
        print(reporting.describe_architecture(name))
        print()


def _cmd_lint(args):
    from repro.analysis import cli as analysis_cli

    return analysis_cli.main(args.lint_args)


def _cmd_spec(args):
    from repro.analysis.pathspec import cli as spec_cli

    return spec_cli.main(args.spec_args)


def _cmd_sanitize(args):
    from repro.sanitize import report as sanitize_report
    from repro.sanitize import runner as sanitize_runner

    report = sanitize_runner.sanitize_target(
        args.target,
        track_writes=not args.no_write_tracking,
        max_cells=args.max_cells,
    )
    rendered = (
        sanitize_report.render_json(report)
        if args.format == "json"
        else sanitize_report.render_text(report)
    )
    print(rendered, end="")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(sanitize_report.render_json(report))
        print("wrote %s" % args.output, file=sys.stderr)
    if args.target == "selftest":
        # the seeded fixtures must trip the detector, not pass it
        from repro.sanitize.selftest import cells as selftest_cells

        expectations = {cell.id: cell.expect_race for cell in selftest_cells()}
        for entry in report["cells"]:
            raced = bool(
                entry["races"]["tie_order"] or entry["races"]["multi_writer"]
            )
            if raced != expectations[entry["cell"]]:
                return 1
        return 0
    return 0 if report["summary"]["clean"] else 1


def _cmd_trace(args):
    from repro.obs import capture as obs_capture
    from repro.obs.export import render_metrics, render_span_tree, write_chrome_trace

    cap = obs_capture.capture(
        args.target, key=args.platform, trace_resume=args.resume_spans
    )
    print(
        "%s on %s: %d cycles, %d spans"
        % (cap.target, cap.key, cap.cycles, sum(1 for _ in cap.obs.spans.iter_spans()))
    )
    print()
    print(render_span_tree(cap.obs.spans))
    print()
    print(render_metrics(cap.obs.metrics))
    if args.output:
        write_chrome_trace(
            args.output,
            cap.obs.spans,
            cap.obs.metrics,
            machine_name=cap.machine.platform.name,
            extra={"target": cap.target, "platform_key": cap.key},
        )
        print("\nwrote %s" % args.output)


def _cmd_bench(args):
    from repro.runner import bench as runner_bench
    from repro.runner.resilience import CellFailure

    if args.cache_verify:
        return _cmd_cache_verify(args, runner_bench)
    if args.no_fastpath:
        # Environment, not a parameter: the lane reads REPRO_FASTPATH
        # wherever a machine is built.
        os.environ["REPRO_FASTPATH"] = "0"
    try:
        outcome = runner_bench.run_bench(
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            transactions=args.transactions,
            keep_going=args.keep_going,
        )
    except CellFailure as failure:
        # the structured abort: cell, error, traceback — on stderr
        print(failure.report_text(), file=sys.stderr)
        return 1
    # The report goes to stdout (byte-identical to `repro all`); the
    # bench summary goes to stderr so redirected output stays clean.
    print(outcome.report)
    runner_bench.write_document(args.output, outcome.document)
    if args.history:
        runner_bench.append_history(args.history, outcome.document)
        print("appended scoreboard line to %s" % args.history, file=sys.stderr)
    print(outcome.summary, file=sys.stderr)
    print("wrote %s" % args.output, file=sys.stderr)
    if outcome.document.get("failed_cells"):
        print(
            "%d cell(s) failed; report is partial (--keep-going)"
            % len(outcome.document["failed_cells"]),
            file=sys.stderr,
        )
        return 1


def _cmd_cache_verify(args, runner_bench):
    """``bench --cache-verify``: re-hash every entry, quarantine bad ones."""
    report = runner_bench.verify_cache(args.cache_dir)
    quarantined = [row for row in report if row["status"] == "quarantined"]
    bad = [row for row in report if row["status"] != "ok"]
    for row in report:
        line = "%-11s %s" % (row["status"], row["key"])
        if row["cell"]:
            line += "  (%s)" % row["cell"]
        if row["reason"]:
            line += "  -- %s" % row["reason"]
        print(line)
    print(
        "cache-verify: %d entr%s checked, %d quarantined"
        % (len(report), "y" if len(report) == 1 else "ies", len(quarantined)),
        file=sys.stderr,
    )
    return 1 if bad else 0


def _cmd_serve(args):
    from repro.service import server as service_server

    config = service_server.ServiceConfig.from_env(
        host=args.host,
        port=args.port,
        admit_max=args.admit_max,
        query_budget=args.query_budget,
        cache_dir=args.cache_dir,
        drain_timeout=args.drain_timeout,
    )
    server = service_server.ServiceServer(config=config)

    def announce(host, port):
        print("serving on http://%s:%d" % (host, port), file=sys.stderr, flush=True)

    return service_server.run_forever(server, announce=announce)


def _parse_json_arg(text, name):
    if not text:
        return {}
    try:
        value = json.loads(text)
    except ValueError:
        raise SystemExit("--%s is not valid JSON: %r" % (name, text))
    if not isinstance(value, dict):
        raise SystemExit("--%s must be a JSON object" % name)
    return value


def _cmd_query(args):
    from repro.errors import ReproError
    from repro.service import client as service_client

    retry = service_client.RetryConfig.from_env(
        retries=0 if args.no_retry else args.retries
    )
    client = service_client.ServiceClient(
        host=args.host, port=args.port, timeout=args.timeout, retry=retry
    )
    if args.health:
        ok = client.health()
        print("ok" if ok else "unreachable")
        return 0 if ok else 1
    if args.show_metrics:
        print(json.dumps(client.metrics(), indent=1))
        return 0
    if not args.target:
        raise SystemExit("query requires --target (or --health/--metrics)")
    params = _parse_json_arg(args.params, "params")
    costs = _parse_json_arg(args.costs, "costs")
    if args.direct:
        from repro.runner.cache import ResultCache
        from repro.service import queries as service_queries

        cache = ResultCache(args.cache_dir) if args.cache_dir else None
        try:
            document = service_queries.direct_document(
                args.target, params, costs, cache=cache
            )
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 1
    else:
        try:
            document = client.query(
                args.target,
                params,
                costs,
                budget_cells=args.budget_cells,
                deadline_ms=args.deadline_ms,
            )
        except service_client.ServiceError as exc:
            # the stable error document, verbatim, on stderr
            print(json.dumps(exc.document, indent=1), file=sys.stderr)
            return 1
        except OSError as exc:
            print("cannot reach service: %s" % exc, file=sys.stderr)
            return 1
    # NOT key-sorted: result_sha256 digests the result's insertion order
    text = json.dumps(document, indent=1)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(
            "%s %s -> %s" % (document["target"], document["result_sha256"][:16], args.output),
            file=sys.stderr,
        )
    else:
        print(text)
    return 0


def _cmd_serve_bench(args):
    from repro.service import loadgen

    document = loadgen.run_profile(clients=args.clients)
    loadgen.write_document(args.output, document)
    print(loadgen.summary_text(document), file=sys.stderr)
    print("wrote %s" % args.output, file=sys.stderr)
    return 0 if all(phase["ok"] for phase in document["phases"]) else 1


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _positive_float(text):
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0, got %r" % value)
    return value


#: table commands with a JSON-serializable ``suite.*_data`` twin
DATA_FUNCS = {
    "table2": lambda args: suite.table2_data(),
    "table3": lambda args: suite.table3_data(),
    "table5": lambda args: suite.table5_data(args.transactions),
    "figure4": lambda args: suite.figure4_data(),
    "ablation": lambda args: suite.ablation_data(),
    "vhe": lambda args: suite.vhe_data(),
}


def _maybe_emit_json(args):
    path = getattr(args, "emit_json", None)
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(DATA_FUNCS[args.command](args), handle, indent=1, sort_keys=True)
        handle.write("\n")


COMMANDS = {
    "table2": lambda args: print(suite.table2_report()),
    "table3": lambda args: print(suite.table3_report()),
    "table5": lambda args: print(suite.table5_report(args.transactions)),
    "figure4": lambda args: print(suite.figure4_report()),
    "ablation": lambda args: print(suite.ablation_report()),
    "vhe": lambda args: print(suite.vhe_report()),
    "figures": _cmd_figures,
    "all": lambda args: print(suite.full_report()),
    "micro": _cmd_micro,
    "lint": _cmd_lint,
    "spec": _cmd_spec,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "sanitize": _cmd_sanitize,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "serve-bench": _cmd_serve_bench,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'ARM Virtualization: Performance and Architectural "
            "Implications' (ISCA 2016) on the simulated testbeds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("figures", "all"):
        sub.add_parser(name, help="regenerate %s" % name)
    for name in ("table2", "table3", "figure4", "ablation", "vhe"):
        table = sub.add_parser(name, help="regenerate %s" % name)
        table.add_argument(
            "--emit-json",
            metavar="PATH",
            help="also write the results as JSON to PATH",
        )
    table5 = sub.add_parser("table5", help="regenerate table5")
    table5.add_argument(
        "--transactions", type=int, default=40, help="TCP_RR transactions to simulate"
    )
    table5.add_argument(
        "--emit-json", metavar="PATH", help="also write the results as JSON to PATH"
    )
    trace = sub.add_parser(
        "trace",
        help="run one operation with observability on; print the span tree "
        "and optionally write a Perfetto-loadable Chrome trace JSON",
    )
    from repro.obs.capture import ALL_TARGETS

    trace.add_argument("target", choices=ALL_TARGETS, help="what to trace")
    trace.add_argument(
        "--platform",
        choices=ALL_KEYS,
        default="kvm-arm",
        help="platform key for microbenchmark targets (default kvm-arm; "
        "table3 is always kvm-arm)",
    )
    trace.add_argument(
        "-o", "--output", metavar="PATH", help="write Chrome trace JSON to PATH"
    )
    trace.add_argument(
        "--resume-spans",
        action="store_true",
        help="also mark every simulation-process resume on the engine track",
    )
    from repro.runner import bench as runner_bench
    from repro.runner.cells import DEFAULT_RR_TRANSACTIONS

    bench = sub.add_parser(
        "bench",
        help="run the whole suite through the in-process runner; "
        "prints the full report and writes a BENCH_suite.json artifact "
        "with per-cell wall time, simulated cycles, and cache hit/miss "
        "counts",
    )
    bench.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the content-addressed result cache",
    )
    bench.add_argument(
        "--no-fastpath",
        action="store_true",
        help="disable the compiled world-switch fast lane (sets "
        "REPRO_FASTPATH=0 for this run); results are "
        "byte-identical either way, only wall time changes",
    )
    bench.add_argument(
        "--cache-dir",
        default=runner_bench.DEFAULT_CACHE_DIR,
        metavar="PATH",
        help="result cache directory (default %s)" % runner_bench.DEFAULT_CACHE_DIR,
    )
    bench.add_argument(
        "--transactions",
        type=_positive_int,
        default=DEFAULT_RR_TRANSACTIONS,
        help="TCP_RR transactions per Table V cell (default %d)"
        % DEFAULT_RR_TRANSACTIONS,
    )
    bench.add_argument(
        "-o",
        "--output",
        default=runner_bench.DEFAULT_DOCUMENT_PATH,
        metavar="PATH",
        help="where to write the bench document (default %s)"
        % runner_bench.DEFAULT_DOCUMENT_PATH,
    )
    bench.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="append this run's scoreboard line (wall clock, cells/s, cache "
        "hit rate, fastpath counters) to a JSONL history file; CI uses "
        "BENCH_history.jsonl to track the throughput trajectory",
    )
    bench.add_argument(
        "--keep-going",
        action="store_true",
        help="do not abort when a cell raises: emit a partial report and "
        "a failed_cells section instead",
    )
    bench.add_argument(
        "--cache-verify",
        action="store_true",
        help="instead of running the bench, re-hash every cache entry and "
        "quarantine mismatches (exit 1 if any were quarantined)",
    )
    from repro.sanitize.runner import TARGETS as SANITIZE_TARGETS

    sanitize = sub.add_parser(
        "sanitize",
        help="run cells twice under SimSan (FIFO vs inverted tie-break) and "
        "report simulation-time races; exit 1 on any finding",
    )
    sanitize.add_argument(
        "target",
        nargs="?",
        default="suite",
        choices=sorted(SANITIZE_TARGETS),
        help="cell group to sanitize (default: suite = everything the full "
        "report simulates; selftest = seeded detector fixtures)",
    )
    sanitize.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout rendering (default text)",
    )
    sanitize.add_argument(
        "-o", "--output", metavar="PATH", help="also write the JSON report to PATH"
    )
    sanitize.add_argument(
        "--max-cells",
        type=_positive_int,
        default=None,
        metavar="N",
        help="sanitize only the first N cells of the target (CI smoke)",
    )
    sanitize.add_argument(
        "--no-write-tracking",
        action="store_true",
        help="skip the shared-state multi-writer instrumentation "
        "(tie-break inversion only)",
    )
    from repro.service import protocol as service_protocol

    serve = sub.add_parser(
        "serve",
        help="start the asyncio what-if query server (JSON over HTTP); "
        "serves until interrupted",
    )
    serve.add_argument(
        "--host",
        default=None,
        help="bind address (default REPRO_SERVE_HOST or 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="TCP port, 0 for ephemeral (default REPRO_SERVE_PORT or %d)"
        % service_protocol.DEFAULT_PORT,
    )
    serve.add_argument(
        "--admit-max",
        type=_positive_int,
        default=None,
        metavar="N",
        help="queries in residence before shedding with 'overloaded' "
        "(default REPRO_ADMIT_MAX or 64)",
    )
    serve.add_argument(
        "--query-budget",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="max cells per query, 0 = unlimited "
        "(default REPRO_QUERY_BUDGET or 0)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="content-addressed result cache (default REPRO_CACHE_DIR or off)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="max time to finish in-flight queries after SIGTERM/SIGINT "
        "before stopping anyway (default REPRO_DRAIN_TIMEOUT or 30)",
    )
    query = sub.add_parser(
        "query",
        help="submit one what-if query to a running server (or compute it "
        "directly with --direct) and print the response document",
    )
    query.add_argument(
        "--host", default="127.0.0.1", help="server address (default 127.0.0.1)"
    )
    query.add_argument(
        "--port",
        type=_positive_int,
        default=None,
        metavar="N",
        help="server port (default REPRO_SERVE_PORT or %d)"
        % service_protocol.DEFAULT_PORT,
    )
    query.add_argument(
        "--timeout",
        type=_positive_float,
        default=120.0,
        metavar="SECONDS",
        help="client socket timeout (default 120)",
    )
    query.add_argument("--target", help="report target (see /v1/targets)")
    query.add_argument(
        "--params",
        metavar="JSON",
        help="target parameters as a JSON object, e.g. '{\"key\": \"xen-arm\"}'",
    )
    query.add_argument(
        "--costs",
        metavar="JSON",
        help="what-if cost overrides, e.g. '{\"arm\": {\"trap_to_el2\": 152}}'",
    )
    query.add_argument(
        "--budget-cells",
        type=_positive_int,
        default=None,
        metavar="N",
        help="reject the query if it plans more than N cells",
    )
    query.add_argument(
        "--deadline-ms",
        type=_positive_float,
        default=None,
        metavar="MS",
        help="give up (504) if the response takes longer than MS",
    )
    query.add_argument(
        "--direct",
        action="store_true",
        help="bypass the server: run the same canonical query through the "
        "runner in-process (the differential golden path)",
    )
    query.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result cache for --direct (default off)",
    )
    query.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="retry budget for shed (503) and connection-reset responses "
        "(default REPRO_CLIENT_RETRIES or 2)",
    )
    query.add_argument(
        "--no-retry",
        action="store_true",
        help="single-attempt: fail immediately on 503 or connection reset",
    )
    query.add_argument(
        "--health",
        action="store_true",
        help="just probe /healthz; exit 0 if the server answers ok",
    )
    query.add_argument(
        "--metrics",
        dest="show_metrics",
        action="store_true",
        help="print the server's /v1/metrics document and exit",
    )
    query.add_argument(
        "-o", "--output", metavar="PATH", help="write the response document to PATH"
    )
    serve_bench = sub.add_parser(
        "serve-bench",
        help="replay a serversim-style closed-loop load profile against an "
        "in-process server and write a SERVICE_bench.json document",
    )
    serve_bench.add_argument(
        "--clients",
        type=_positive_int,
        default=4,
        metavar="N",
        help="closed-loop client population (default 4)",
    )
    from repro.service.loadgen import DEFAULT_DOCUMENT_PATH as SERVICE_BENCH_PATH

    serve_bench.add_argument(
        "-o",
        "--output",
        default=SERVICE_BENCH_PATH,
        metavar="PATH",
        help="where to write the bench document (default %s)" % SERVICE_BENCH_PATH,
    )
    micro = sub.add_parser("micro", help="one platform's microbenchmark column")
    micro.add_argument(
        "--platform",
        choices=ALL_KEYS,
        default="kvm-arm",
        help="platform key (default kvm-arm)",
    )
    lint = sub.add_parser(
        "lint",
        help="run the model-integrity linter (see python -m repro.analysis -h)",
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.analysis (paths, --format, --select, ...)",
    )
    spec = sub.add_parser(
        "spec",
        help="extract, diff or show the golden world-switch path specs "
        "(see python -m repro spec -h)",
    )
    spec.add_argument(
        "spec_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.analysis.pathspec "
        "(extract|diff|show, paths, --spec-dir, --id, ...)",
    )
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # forward verbatim: argparse.REMAINDER chokes on leading options
        from repro.analysis import cli as analysis_cli

        return analysis_cli.main(argv[1:])
    if argv[:1] == ["spec"]:
        from repro.analysis.pathspec import cli as spec_cli

        return spec_cli.main(argv[1:])
    args = build_parser().parse_args(argv)
    # lint returns the linter's exit status; report commands return None
    status = COMMANDS[args.command](args) or 0
    _maybe_emit_json(args)
    return status


if __name__ == "__main__":
    sys.exit(main())
