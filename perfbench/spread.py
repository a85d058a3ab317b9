#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and prints, per metric, the median over seeds and the distance
between the first and third quartile as a share of that median, next to
the metric's bound. Run from the repository root:

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --seeds 5 --workload bpt-write-rcb
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = {}
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE)
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (w, seed, proc.returncode))
                sys.exit(1)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % (n, values[n][-1]) for n in bounds)), flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            worst[name] = max(worst.get(name, 0.0), spread)
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print("  %-18s median %-12.6g spread %6.2f%%  bound %4.0f%%%s" % (
                name, med, 100 * spread, 100 * bounds[name], flag))
    print("worst spread: " + ", ".join("%s %.2f%%" % (n, 100 * s) for n, s in worst.items()))


if __name__ == "__main__":
    main()
