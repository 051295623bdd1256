#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/perfbench.exe with dune
(the first build compiles the whole simulator), runs it once and relays
its output; the last line is the JSON result.  Exits non-zero without
printing a result when the simulator sources are missing, the build
fails, or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ("fig6-sweep", "exploit-sweep", "trace-replay")
# Everything the benchmark needs from the repository besides itself.
NEEDED = ("dune-project", "lib", "test/golden/timing.json", "test/golden/trace_skylake.csv")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = p.parse_args()

    missing = [n for n in NEEDED if not os.path.exists(os.path.join(ROOT, n))]
    if missing:
        fail(f"not in a repository checkout ({', '.join(missing)} missing)")

    # The shared dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    t0 = time.monotonic()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    print(f"perfbench: build {time.monotonic() - t0:.1f}s", file=sys.stderr)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"run exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        fail("run printed no result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
