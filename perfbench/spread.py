"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload report --seeds 1 2 3 4 5

Runs the untraced benchmark once per seed (for ``run_seconds`` from
``BENCHMARK.json`` unless ``--seconds`` is given) and prints, per
metric, the median and the interquartile range as a share of the
median, next to the metric's bound.  Exits 1 if a spread other than
``setup_s``'s exceeds its bound.  Run it from the checkout root.
"""

import argparse
import json
import statistics
import sys

from selfcheck import measure


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    runs = [measure(args.workload, seed, seconds, 0) for seed in args.seeds]
    over = 0
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = [run[name] for run in runs]
        median = statistics.median(values)
        quartiles = statistics.quantiles(values, n=4)
        spread = (quartiles[2] - quartiles[0]) / median if median else float("inf")
        bad = spread > metric["bound"] and name != "setup_s"
        over += bad
        print("%-8s %-24s median %-12.5g spread %.4f  bound %.2f %-4s %s" % (
            args.workload, name, median, spread, metric["bound"], "OVER" if bad else "",
            " ".join("%.4g" % value for value in values)))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
