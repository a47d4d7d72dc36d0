"""Exact-count self-check: the deterministic metrics must repeat.

    python3 perfbench/selfcheck.py --workload hot --seeds 1 7 --seconds 4

For each seed, runs the benchmark twice traced and twice untraced and
fails (exit 1) if any exact count differs between the two runs of a
pair: the per-layer counts in ``layers.EXACT`` (cells, cycles, engines,
fast-lane and cache counters, the server's simulated/cached cells) and
the paper errors.  Run it from the checkout root, like ``run.py``.
"""

import argparse
import json
import os
import subprocess
import sys

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
PAPER_ERR = ("paper_err_pct.table2", "paper_err_pct.table5", "paper_err_pct.figure4")


def measure(workload, seed, seconds, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
    )
    lines = completed.stdout.decode("utf-8").splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if completed.returncode != 0 or not result["correct"]:
        raise SystemExit("%s seed %d trace %d: incorrect output" % (workload, seed, trace))
    return {name: row["value"] for name, row in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    differences = 0
    for seed in args.seeds:
        for trace, names in ((1, layers.EXACT), (0, PAPER_ERR)):
            first = measure(args.workload, seed, args.seconds, trace)
            second = measure(args.workload, seed, args.seconds, trace)
            for name in names:
                same = first[name] == second[name]
                differences += not same
                print("%-6s seed %-4d %-34s %-14r %s" % (
                    args.workload, seed, name, first[name],
                    "same" if same else "DIFFERS: %r" % (second[name],)))
    print("%d difference(s)" % differences)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
