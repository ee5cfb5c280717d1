"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass is a fresh interpreter
(bench/worker.py) that sets the workload up and runs its jobs one at a
time: a closed loop with one client, so module caches start cold, as
they do for a CLI user.  Passes repeat until the next one would overrun
``--seconds``; the remaining time is filled with set-up-only processes, so
that set-up time has several samples.

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over passes; times are scaled to a nominal machine speed (speed.py).  With ``--trace 1`` it alternates untraced and traced passes,
and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object; the lines before it name
every metric with its unit, sample count and quartiles.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("axiom-sweep", "con-ladder", "term-search", "cli-battery")
MIN_SETUPS = 5
MAX_SETUPS = 15
PASS_TIMEOUT_S = 120  # with a 30 s run, a hung pass still ends the run within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_job_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class PassError(RuntimeError):
    pass


def layer_units():
    """Unit of every per-layer metric, in report order."""
    from layertrace import DERIVED_UNITS, LAYER_FUNCTIONS

    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    units["trace.overhead"] = "ratio"
    units["trace.absent"] = "count"
    return units


def run_pass(workload, seed, *flags, spans=None):
    """Run one worker process; return its JSON record with set-up and total time."""
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--workdir", workdir, *flags]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"a {workload} pass ran over {PASS_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ended = time.monotonic()
    if proc.returncode != 0:
        raise PassError(f"a {workload} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_raw_s"] = record["ready_at"] - spawned
    record["setup_s"] = (record["setup_raw_s"] - record["setup_probe_s"]) * record["setup_speed"]
    record["elapsed_s"] = ended - spawned
    return record


def summarize(values):
    """Median, quartiles and sample count of one metric's samples."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def _wall(record, column=1):
    """Sum of the job times of one pass: scaled (column 1) or raw (column 3)."""
    return sum(job[column] for job in record["jobs"])


def measure(workload, seed, seconds, trace, small=False, wrong=False):
    """Run one workload for about ``seconds`` and return metrics and counts."""
    os.makedirs(OUT, exist_ok=True)
    flags = [f for f, on in (("--small", small), ("--wrong", wrong)) if on]
    spans = os.path.join(OUT, f"spans-{workload}.csv")
    deadline = time.monotonic() + seconds
    passes, traced = [], []
    longest = 0.0
    while True:
        # Traced runs alternate untraced and traced passes, so that drift in
        # machine speed does not enter the tracing overhead.
        started = time.monotonic()
        passes.append(run_pass(workload, seed, *flags))
        if trace:
            traced.append(run_pass(workload, seed, "--trace", *flags, spans=spans))
        longest = max(longest, time.monotonic() - started)
        if time.monotonic() + longest > deadline:
            break
    setups = [r["setup_s"] for r in passes]
    raw_setups = [r["setup_raw_s"] for r in passes]
    if not trace:
        costliest = 0.0
        while len(setups) < MAX_SETUPS and (
            len(setups) < MIN_SETUPS or time.monotonic() + costliest < deadline
        ):
            record = run_pass(workload, seed, "--setup-only", *flags)
            setups.append(record["setup_s"])
            raw_setups.append(record["setup_raw_s"])
            costliest = max(costliest, record["elapsed_s"])

    jobs = [job for r in passes + traced for job in r["jobs"]]
    failed = [job for job in jobs if job[2]]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "attempted": len(jobs),
        "failed": len(failed),
        "problems": [f"{job[0]}: {'; '.join(job[2])}" for job in failed],
        "numpy": passes[0]["numpy"],
    }
    if trace:
        units = layer_units()
        layers = {}
        for name in units:
            if name in ("trace.overhead", "trace.absent"):
                continue
            layers[name] = summarize([r["layers"][name] for r in traced])
        layers["trace.overhead"] = summarize(
            [statistics.median(_wall(r) for r in traced) / statistics.median(_wall(r) for r in passes)])
        layers["trace.absent"] = summarize([len(traced[0]["absent"])])
        result["absent"] = traced[0]["absent"]
        result["calls_repeat"] = all(
            {k: v for k, v in r["layers"].items() if k.endswith(".calls")}
            == {k: v for k, v in traced[0]["layers"].items() if k.endswith(".calls")}
            for r in traced
        )
        result["metrics"] = {k: dict(v, unit=units[k]) for k, v in layers.items()}
    else:
        stats = {
            "setup_s": summarize(setups),
            "wall_s": summarize([_wall(r) for r in passes]),
            "slowest_job_s": summarize([max(job[1] for job in r["jobs"]) for r in passes]),
            "peak_rss_mb": summarize([r["maxrss_kb"] / 1024 for r in passes]),
            "ok_frac": summarize([1 - len(failed) / len(jobs)]),
        }
        result["fail_frac"] = len(failed) / len(jobs)
        result["unscaled"] = {
            "setup_s": statistics.median(raw_setups),
            "wall_s": statistics.median(_wall(r, 3) for r in passes),
            "slowest_job_s": statistics.median(max(job[3] for job in r["jobs"]) for r in passes),
        }
        result["metrics"] = {k: dict(v, unit=END_TO_END_UNITS[k]) for k, v in stats.items()}
    return result


def environment():
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def describe(result, env):
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"passes {result['passes']}  traced passes {result['traced_passes']}  "
        f"set-up samples {result['setup_samples']}",
        f"python {env['python']}  numpy {result['numpy']}  nproc {env['nproc']}  "
        f"commit {env['commit']}",
        f"attempted {result['attempted']}  failed {result['failed']}"
        + (f"  fail_frac {result['fail_frac']:.4f}" if "fail_frac" in result else ""),
    ]
    lines += [f"problem {p}" for p in result["problems"]]
    if "unscaled" in result:
        lines.append("unscaled medians (raw seconds, not compared): " + "  ".join(
            f"{name} {value:.6g}" for name, value in result["unscaled"].items()))
    if result["trace"]:
        lines.append(f"calls repeat across traced passes: {result['calls_repeat']}")
        lines += [f"absent {name}" for name in result["absent"]]
    for name, m in result["metrics"].items():
        lines.append(f"{name:<50} {m['value']:>14.6g} {m['unit']:<6} "
                     f"n={m['n']} q1={m['q1']:.6g} q3={m['q3']:.6g}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "goursat", "__init__.py")):
        print(f"error: no goursat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(result, environment())))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
