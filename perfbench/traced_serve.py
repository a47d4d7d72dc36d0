"""``python -m repro serve``, with the benchmark's spans or a profiler on.

    python perfbench/traced_serve.py --cache-dir DIR --spans OUT
    python perfbench/traced_serve.py --cache-dir DIR --profile OUT

Builds the same ``ServiceServer`` and runs the same ``run_forever`` as
``serve --port 0``.  With ``--spans`` every layer boundary in ``layers.py`` is
wrapped first and the spans are written to OUT on shutdown.  With
``--profile`` the event-loop thread and the broker thread each run
under cProfile, and OUT receives the ``self_pct.<package>`` split.
Stop it with SIGTERM, like ``serve``.
"""

import argparse
import cProfile
import json
import pstats
import sys

import layers
import tracing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cache-dir", required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--spans")
    mode.add_argument("--profile")
    args = parser.parse_args(argv)

    from repro.service import broker as broker_mod
    from repro.service import server as service_server

    recorder = None
    broker_profiles = []
    if args.spans:
        recorder = tracing.Recorder()
        layers.install_all(recorder)
    else:
        original_run = broker_mod.SimulationBroker._run

        def profiled_run(self):
            profile = cProfile.Profile()
            broker_profiles.append(profile)
            profile.enable()
            try:
                return original_run(self)
            finally:
                profile.disable()

        broker_mod.SimulationBroker._run = profiled_run

    config = service_server.ServiceConfig.from_env(port=0, cache_dir=args.cache_dir)
    server = service_server.ServiceServer(config=config)

    def announce(host, port):
        print("serving on http://%s:%d" % (host, port), file=sys.stderr, flush=True)

    if recorder is not None:
        code = service_server.run_forever(server, announce=announce)
        recorder.dump(args.spans)
        return code
    main_profile = cProfile.Profile()
    main_profile.enable()
    try:
        code = service_server.run_forever(server, announce=announce)
    finally:
        main_profile.disable()
    stats = pstats.Stats(main_profile)
    for profile in broker_profiles:
        stats.add(profile)
    with open(args.profile, "w", encoding="utf-8") as handle:
        json.dump(layers.self_pct(stats), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
