"""Print every end-to-end and per-layer metric of every workload, by name and unit.

    python3 bench/report.py [--seed N] [--seconds S] [--save PATH]

Runs each workload twice, untraced and traced, for ``--seconds`` each, and
prints the same lines run.py prints.  ``--save`` writes all metrics with
their sample counts and quartiles, the environment and the pass counts to
a JSON file, such as the baseline bench/BENCH_seed.json.
"""

import argparse
import json
import sys

from run import WORKLOADS, describe, environment, measure


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--save", metavar="PATH")
    args = parser.parse_args(argv)
    env = environment()
    saved = {"environment": env, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    failed = 0
    for workload in WORKLOADS:
        entry = saved["workloads"][workload] = {}
        for trace in (False, True):
            result = measure(workload, args.seed, args.seconds, trace)
            print("\n".join(describe(result, env)), end="\n\n", flush=True)
            env["numpy"] = result["numpy"]
            failed += result["failed"]
            part = entry["per_layer" if trace else "end_to_end"] = {
                key: result[key]
                for key in ("passes", "traced_passes", "setup_samples", "attempted",
                            "failed", "metrics")
            }
            if trace:
                part["calls_repeat"] = result["calls_repeat"]
                part["absent"] = result["absent"]
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
