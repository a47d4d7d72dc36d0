"""The repository benchmark: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload report|whatif|hot --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout (it imports ``repro`` from
``src/``).  ``--trace 0`` measures every end-to-end metric with nothing
wrapped; ``--trace 1`` wraps the calls into each layer and prints the
per-layer metrics instead (README.md lists both).  Every output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every ``REPRO_*``
variable is removed from the environment first, so no stray knob
changes what is measured.
"""

import argparse
import itertools
import json
import os
import shutil
import sys
import traceback

WORKLOADS = ("report", "whatif", "hot")
#: the tail percentile of each workload: well over ten samples lie beyond
#: it at the benchmark's run length.  Higher percentiles that still have
#: ten are set by host stalls on a shared two-CPU host, and their
#: run-to-run spread nears the bound.
TAIL_PCT = {"report": 90, "whatif": 98, "hot": 98}
END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("paper_err_pct.table2", "%"),
    ("paper_err_pct.table5", "%"),
    ("paper_err_pct.figure4", "%"),
)


class Context:
    """Where a run works: the checkout, its scratch area, its children."""

    def __init__(self, root):
        self.root = root
        self.work = os.path.join(root, ".perfbench-work")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        for name in [name for name in os.environ if name.startswith("REPRO_")]:
            del os.environ[name]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.servers = []
        self._scratch = []
        self._serial = itertools.count()

    def path(self, name):
        return os.path.join(self.work, name)

    def fresh_dir(self, name):
        path = self.path("%s-%d" % (name, next(self._serial)))
        os.makedirs(path)
        self._scratch.append(path)
        return path

    def close(self):
        for server in self.servers:
            if server.process.poll() is None:
                server.process.kill()
            server.process.wait()
            server.process.stderr.close()
        for path in self._scratch:
            shutil.rmtree(path, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from a source checkout" % root,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import inproc
    import layers
    import served

    ctx = Context(root)
    try:
        if args.workload == "report":
            if args.trace:
                result = inproc.run_traced(args.seconds, ctx)
            else:
                result = inproc.run(args.seconds, ctx, TAIL_PCT["report"])
        elif args.trace:
            result = served.run_traced(args.workload, args.seed, args.seconds, ctx)
        else:
            result = served.run(
                args.workload, args.seed, args.seconds, ctx, TAIL_PCT[args.workload]
            )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        ctx.close()

    catalog = (
        [(name, unit) for name, unit, _better in layers.PER_LAYER]
        if args.trace
        else END_TO_END
    )
    for problem in result["problems"]:
        print("perfbench: check failed: %s" % problem, file=sys.stderr)
    correct = not result["problems"] and result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in catalog
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
