"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at its smallest size and shows four things: no job
fails on right answers; a deliberately wrong expected answer is counted in
``failed`` on every workload; two traced runs give identical ``.calls``
counts; and run.py stops with a non-zero exit and no result in a directory
that holds only BENCHMARK.json and the benchmark's files.
"""

import os
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, WORKLOADS, measure


def calls(result):
    return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}


def main():
    failures = []

    def expect(ok, text):
        print(f"{'ok  ' if ok else 'FAIL'} {text}", flush=True)
        if not ok:
            failures.append(text)

    for workload in WORKLOADS:
        right = measure(workload, 0, 0, trace=False, small=True)
        expect(right["failed"] == 0 and right["attempted"] > 0,
               f"{workload}: {right['failed']} of {right['attempted']} jobs failed "
               f"{right['problems']}")
        wrong = measure(workload, 0, 0, trace=False, small=True, wrong=True)
        expect(wrong["fail_frac"] > 0,
               f"{workload}: a wrong expected answer gives fail_frac {wrong['fail_frac']:.3f}")
        first = measure(workload, 0, 0, trace=True, small=True)
        second = measure(workload, 0, 0, trace=True, small=True)
        expect(calls(first) == calls(second) and sum(calls(first).values()) > 0,
               f"{workload}: two traced runs give identical .calls counts")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the sources run.py exits {proc.returncode} and prints no result")

    print(f"selftest: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
