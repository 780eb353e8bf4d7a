#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end figures repeat across seeds.

Runs each workload once per seed, untraced, at BENCHMARK.json's run
length, and prints for every end-to-end metric the median and the spread
(distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median)
beside the metric's bound. Run it from the root of a checkout:

    python3 perfbench/steady.py --seeds 1-10 [--workloads spec-o3,mcheck]

A spread above the bound fails (exit 1); one above a third of the bound
is flagged. setup_s is reported but not held to its bound, because only
its median is compared between commits. With --out, every result line is
appended to a JSON-lines file as it arrives.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for name in names:
        values = {m: [] for m in bounds}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": name, "seed": seed, **res}) + "\n")
            if not res["correct"]:
                print(f"{name} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
                ok = False
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        for m, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
            flag = "ok"
            if spread > bounds[m] / 3:
                flag = "WIDE"
            if spread > bounds[m]:
                flag = "OVER"
                if m != "setup_s":
                    ok = False
            print(f"{name:10s} {m:12s} median {med:14.6g} spread {spread:7.4f} bound {bounds[m]:.2f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
