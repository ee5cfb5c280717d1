"""One benchmark pass in a fresh interpreter.

Run by run.py, never by hand: it imports goursat from the checkout's
``src``, sets up one workload, runs its jobs one at a time, checks every
answer, and prints one JSON line with the set-up end time, the per-job
times and problems, and the process's peak resident set size.  A speed
probe (speed.py) runs throughout, so that set-up and every job time can be
scaled to the nominal machine speed; each job carries its scaled and its
raw time.  With ``--trace`` the goursat functions are wrapped first and
the line also carries the per-layer summary.
"""

import argparse
import json
import os
import resource
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--wrong", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file for the raw spans of a traced pass")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    probe = speed.Probe()
    if not args.trace:
        # Timer probes would land inside traced spans and inflate self
        # times; traced passes are scaled by the edge probes alone.
        probe.start()
    probe.open()
    sys.path.insert(0, SRC)
    import goursat

    if os.path.dirname(os.path.abspath(goursat.__file__)) != os.path.join(SRC, "goursat"):
        sys.exit(f"goursat was imported from {goursat.__file__}, not from {SRC}")
    import workloads

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
        tracer.active = True
    jobs = workloads.build(args.workload, args.seed, args.small, args.wrong, args.workdir)
    ready_at = time.monotonic()
    _, cost, rate = probe.close()
    result = {"ready_at": ready_at, "setup_probe_s": cost, "setup_speed": rate,
              "numpy": sys.modules["numpy"].__version__, "jobs": []}
    if not args.setup_only:
        for job in jobs:
            start = probe.open()
            if tracer:
                tracer.active = True
            try:
                answer = job.run()
                error = None
            except Exception as exc:  # a job that raises counts as failed
                error = f"raised {type(exc).__name__}: {exc}"
            end, cost, rate = probe.close()
            if tracer:
                tracer.active = False
            elapsed = end - start - cost
            if error is None:
                try:
                    problems = job.check(answer)
                except Exception as exc:  # an answer the check cannot read is wrong
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            result["jobs"].append([job.name, elapsed * rate, problems, elapsed])
    probe.stop()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.active = False
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
