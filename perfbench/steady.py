#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

Runs each workload once per seed (seeds 1..--runs, run_seconds from
BENCHMARK.json) through perfbench/run.py and prints, for every
end-to-end metric, the median, the quartiles, the spread
(q3 - q1) / median and max/min, against the metric's bound from
BENCHMARK.json.  A spread within a third of the bound is "steady";
within the bound, "noisy"; beyond it, "FAIL".

    python3 perfbench/steady.py [--workload W ...] [--runs 10] [--sets 1|2]

--sets 2 is the A/B mode: two sets of runs of the same code, taken
alternately (A B, B A, A B, ... one pair per seed) so that host drift
lands on both sides.  A metric fails the A/B check when set B's median
is worse than set A's by more than its bound.  Exits 1 if any check
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    """{metric: value} of one run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steady: {workload} seed {seed}: {result['failed']} failed op(s)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_sets(workloads, runs, sets, seconds):
    """One {workload: {metric: [values]}} per set."""
    out = [{w: {} for w in workloads} for _ in range(sets)]
    for w in workloads:
        for seed in range(1, runs + 1):
            order = range(sets) if seed % 2 else reversed(range(sets))
            for i in order:
                values = run_once(w, seed, seconds)
                for name, v in values.items():
                    out[i][w].setdefault(name, []).append(v)
                print(f"  set {i + 1} {w} seed {seed}: "
                      + " ".join(f"{n}={v:.4g}" for n, v in values.items()),
                      file=sys.stderr, flush=True)
    return out


def report(data, metrics):
    ok = True
    print(f"{'workload':14} {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'max/min':>7} {'bound':>6}  verdict")
    for w, values in data.items():
        for name, m in metrics.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            s = (q3 - q1) / med
            mm = max(v) / min(v) if min(v) > 0 else float("inf")
            if s <= m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "noisy"
            else:
                verdict = "FAIL"
                ok = False
            print(f"{w:14} {name:22} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.2%} {mm:7.3f} {m['bound']:6.2f}  {verdict}")
    return ok


def compare(a, b, metrics):
    ok = True
    print(f"{'workload':14} {'metric':22} {'median A':>12} {'median B':>12} "
          f"{'worse by':>8} {'bound':>6}  verdict")
    for w in a:
        for name, m in metrics.items():
            ma, mb = statistics.median(a[w][name]), statistics.median(b[w][name])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= m["bound"] else "FAIL"
            ok = ok and verdict == "ok"
            print(f"{w:14} {name:22} {ma:12.6g} {mb:12.6g} {worse:8.2%} "
                  f"{m['bound']:6.2f}  {verdict}")
    return ok


def main():
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    metrics = {m["name"]: m for m in s["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = p.parse_args()

    sets = run_sets(args.workload or names, args.runs, args.sets, s["run_seconds"])
    ok = True
    for i, data in enumerate(sets):
        print(f"\nset {i + 1}")
        ok = report(data, metrics) and ok
    if len(sets) == 2:
        print("\nA/B (set 2 against set 1)")
        ok = compare(sets[0], sets[1], metrics) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
