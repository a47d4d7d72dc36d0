"""Model-integrity linter CLI.

Usage:
    python -m repro.analysis                     # lint the installed package
    python -m repro.analysis src/repro           # lint a tree
    python -m repro.analysis --format json path  # machine-readable output
    python -m repro.analysis --select CAL001,COV001 src/repro
    python -m repro.analysis --ignore API001 --statistics src/repro
    python -m repro.analysis --list-rules

Exit status: 0 clean, 1 findings, 2 bad invocation.
"""

import argparse
import os
import sys

from repro.analysis.config import LintConfig
from repro.analysis.engine import run_analysis
from repro.analysis.report import RENDERERS
from repro.analysis.rules import ALL_RULES


def _default_path():
    """The repro package directory itself (works from any cwd)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Model-integrity static analysis for the reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=sorted(RENDERERS), default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule codes to run (default: all configured)",
    )
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule codes or prefixes (e.g. CAL) to drop "
             "from the resolved set; unknown entries are an error",
    )
    parser.add_argument(
        "--statistics", action="store_true",
        help="append a per-rule finding-count summary",
    )
    parser.add_argument(
        "--config", metavar="PYPROJECT",
        help="pyproject.toml with a [tool.repro-lint] block "
             "(default: discovered upward from the first path)",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore any pyproject.toml; use built-in defaults",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print("%s  %-20s %s" % (rule.code, rule.name, rule.description))
        return 0
    paths = args.paths or [_default_path()]
    for path in paths:
        if not os.path.exists(path):
            print("repro.analysis: no such path: %s" % path, file=sys.stderr)
            return 2
    if args.no_config:
        config = LintConfig()
    elif args.config:
        config = LintConfig.load(args.config)
    else:
        config = LintConfig.discover(paths[0])
    select = _codes(args.select)
    ignore = _codes(args.ignore)
    try:
        violations = run_analysis(paths, config=config, select=select, ignore=ignore)
    except KeyError as exc:
        print("repro.analysis: %s" % exc.args[0], file=sys.stderr)
        return 2
    print(RENDERERS[args.format](violations, statistics=args.statistics))
    return 1 if violations else 0


def _codes(raw):
    if not raw:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


if __name__ == "__main__":
    sys.exit(main())
