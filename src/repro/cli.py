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
    python -m repro trace table3 -o trace.json   # Perfetto span trace
    python -m repro bench              # whole grid + BENCH_suite.json
    python -m repro serve              # what-if query server (asyncio)
    python -m repro query --target table2      # query a running server
    python -m repro query --direct --target table2  # same, no server
    python -m repro check FILE...      # check bench/service/trace documents

Table commands accept ``--emit-json PATH`` to write the underlying
results as JSON alongside the rendered table.
"""

import argparse
import json
import sys

from repro.core import reporting
from repro.core.testbed import ALL_KEYS
from repro.errors import ConfigurationError
from repro.service import protocol, queries

#: commands that print one query target: command -> (target, params)
TARGET_COMMANDS = {
    "table2": ("table2", lambda args: {}),
    "table3": ("table3", lambda args: {}),
    "table5": ("table5", lambda args: {"transactions": args.transactions}),
    "figure4": ("figure4", lambda args: {}),
    "ablation": ("ablation", lambda args: {}),
    "vhe": ("vhe", lambda args: {}),
    "all": ("report", lambda args: {}),
    "micro": ("micro", lambda args: {"key": args.platform}),
}


def _cmd_target(args):
    """Run the command's target once: print its table, and write its
    JSON to ``--emit-json`` from the same results."""
    target, params = TARGET_COMMANDS[args.command]
    query, results = queries.run_local(target, params(args))
    print(queries.render(query, results))
    path = getattr(args, "emit_json", None)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(queries.assemble(query, results), handle, indent=1, sort_keys=True)
            handle.write("\n")


def _cmd_figures(_args):
    for name in ("figure1", "figure2", "figure3", "figure5"):
        print(reporting.describe_architecture(name))
        print()


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

    try:
        outcome = runner_bench.run_bench(
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            transactions=args.transactions,
        )
    except CellFailure as failure:
        # the structured abort: cell, error, traceback — on stderr
        print(failure.report_text(), file=sys.stderr)
        return 1
    # The report goes to stdout (byte-identical to `repro all`); the
    # bench summary goes to stderr so redirected output stays clean.
    print(outcome.report)
    runner_bench.write_document(args.output, outcome.document)
    print(outcome.summary, file=sys.stderr)
    print("wrote %s" % args.output, file=sys.stderr)


def _cmd_serve(args):
    from repro.service import server as service_server

    try:
        config = service_server.ServiceConfig.from_env(
            host=args.host,
            port=args.port,
            admit_max=args.admit_max,
            cache_dir=args.cache_dir,
        )
    except ConfigurationError as exc:  # a bad REPRO_* setting
        print(str(exc), file=sys.stderr)
        return 1
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

    # --direct opens no connection, so it reads no client setting
    if not args.direct or args.health or args.show_metrics:
        try:
            retry = service_client.RetryConfig.from_env(
                retries=0 if args.no_retry else args.retries
            )
            client = service_client.ServiceClient(
                host=args.host, port=args.port, timeout=args.timeout, retry=retry
            )
        except ConfigurationError as exc:  # a bad REPRO_* setting
            print(str(exc), file=sys.stderr)
            return 1
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
            document = client.query(args.target, params, costs)
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


def check_document(document):
    """Problems with one document (an empty list when it is valid), found
    by the check of the module that writes it: a trace by its
    ``traceEvents``, any other document by its ``schema`` tag."""
    from repro.obs import export
    from repro.runner import bench

    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    if "traceEvents" in document:
        return export.check_trace(document)
    check = {
        bench.BENCH_SCHEMA: bench.check_document,
        protocol.SCHEMA: protocol.check_response,
        protocol.METRICS_SCHEMA: protocol.check_metrics,
    }.get(document.get("schema"))
    if check is None:
        return ["unknown schema tag %r" % (document.get("schema"),)]
    return check(document)


def _cmd_check(args):
    failed = False
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            problems = ["cannot load: %s" % exc]
        else:
            problems = check_document(document)
        for problem in problems:
            print("FAIL %s: %s" % (path, problem))
        if not problems:
            print("ok   %s" % path)
        failed = failed or bool(problems)
    return 1 if failed else 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _transactions(text):
    from repro.runner.cells import MAX_RR_TRANSACTIONS

    value = _positive_int(text)
    if value > MAX_RR_TRANSACTIONS:
        raise argparse.ArgumentTypeError(
            "must be <= %d (one virtio-net rx queue of TCP_RR "
            "transactions), got %d" % (MAX_RR_TRANSACTIONS, value)
        )
    return value


def _port(minimum):
    """An argparse type: a TCP port in ``minimum..protocol.MAX_PORT``."""

    def port(text):
        value = int(text)
        if not minimum <= value <= protocol.MAX_PORT:
            raise argparse.ArgumentTypeError(
                "must be in %d..%d, got %d" % (minimum, protocol.MAX_PORT, value)
            )
        return value

    return port


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


COMMANDS = dict.fromkeys(TARGET_COMMANDS, _cmd_target)
COMMANDS.update(
    figures=_cmd_figures,
    trace=_cmd_trace,
    bench=_cmd_bench,
    serve=_cmd_serve,
    query=_cmd_query,
    check=_cmd_check,
)


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
    for name in ("table2", "table3", "table5", "figure4", "ablation", "vhe"):
        table = sub.add_parser(name, help="regenerate %s" % name)
        table.add_argument(
            "--emit-json",
            metavar="PATH",
            help="also write the results as JSON to PATH",
        )
        if name == "table5":
            table.add_argument(
                "--transactions",
                type=_transactions,
                default=40,
                help="TCP_RR transactions to simulate (at most 256)",
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
    from repro.runner.cells import DEFAULT_RR_TRANSACTIONS, MAX_RR_TRANSACTIONS

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
        "--cache-dir",
        default=runner_bench.DEFAULT_CACHE_DIR,
        metavar="PATH",
        help="result cache directory (default %s)" % runner_bench.DEFAULT_CACHE_DIR,
    )
    bench.add_argument(
        "--transactions",
        type=_transactions,
        default=DEFAULT_RR_TRANSACTIONS,
        help="TCP_RR transactions per Table V cell (default %d, at most %d)"
        % (DEFAULT_RR_TRANSACTIONS, MAX_RR_TRANSACTIONS),
    )
    bench.add_argument(
        "-o",
        "--output",
        default=runner_bench.DEFAULT_DOCUMENT_PATH,
        metavar="PATH",
        help="where to write the bench document (default %s)"
        % runner_bench.DEFAULT_DOCUMENT_PATH,
    )
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
        type=_port(0),
        default=None,
        metavar="N",
        help="TCP port, 0 for ephemeral (default REPRO_SERVE_PORT or %d)"
        % protocol.DEFAULT_PORT,
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
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="content-addressed result cache (default REPRO_CACHE_DIR or off)",
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
        type=_port(1),
        default=None,
        metavar="N",
        help="server port (default REPRO_SERVE_PORT or %d)"
        % protocol.DEFAULT_PORT,
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
    check = sub.add_parser(
        "check",
        help="check bench, service and trace documents against the contract "
        "of the code that writes them; exit 1 if any is invalid or unreadable",
    )
    check.add_argument("files", nargs="+", metavar="FILE", help="JSON documents")
    micro = sub.add_parser("micro", help="one platform's microbenchmark column")
    micro.add_argument(
        "--platform",
        choices=ALL_KEYS,
        default="kvm-arm",
        help="platform key (default kvm-arm)",
    )
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    # bench, serve, query and check return an exit status; report commands
    # return None
    return COMMANDS[args.command](args) or 0


if __name__ == "__main__":
    sys.exit(main())
