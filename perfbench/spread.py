"""Run workloads on several seeds and report each metric's spread.

    python3 perfbench/spread.py                       # every workload, seeds 1 2
    python3 perfbench/spread.py --workloads qi --seeds 1 2 3 4 5

Each run is a fresh untraced `python3 perfbench/run.py` process with
BENCHMARK.json's run_seconds, one at a time.
For every workload it prints each metric with its unit, its value per
seed, the median, and the spread: the distance between the first and
third quartile as a share of the median (max - min over the median for
fewer than four seeds).  Every end-to-end metric, setup_s included, is
compared with its bound in BENCHMARK.json.  It also prints each
workload's error rate, failed ops over attempted ops.  Exit status 1 if
a spread exceeds its bound or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    mid = statistics.median(values)
    if not mid:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / mid
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads:
        results = [run_once(workload, seed, bench["run_seconds"]) for seed in args.seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ok = ok and all(r["correct"] for r in results)
        print(f"== {workload}  seeds {' '.join(map(str, args.seeds))}  "
              f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted})")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if s <= bound else "OVER BOUND"
                ok = ok and s <= bound
            print(f"  {name:40s} {first['unit']:6s} median {statistics.median(values):12.6g}  "
                  f"spread {s:7.4f}  bound {bound if bound is not None else '-':>5}  {verdict}")
            print(f"  {'':40s} values {' '.join(f'{v:.6g}' for v in values)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
