#!/usr/bin/env python3
"""Build and run the AsymNVM benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload bpt-write-rcb --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload runs in one process, so its peak RSS is its own. The last
line of standard output is the run's JSON result. With `--workload all`
each workload runs in turn and a summary table follows; the exit status is
non-zero if any run failed its checks.

The program is built from source with dune into .bench_build/ under the
current directory, which must be the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["bpt-write-rcb", "bpt-read-zipf", "bpt-shared-2w4r"]
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
SPANS_DIR = os.path.join(".bench_build", "spans")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ are missing here")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--cache=disabled",
           "--build-dir", os.path.abspath(BUILD_DIR), "./perfbench/perfbench.exe"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def run_one(workload, seed, seconds, trace, echo):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS_DIR, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    out = proc.stdout.decode(errors="replace")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds, args.trace, echo=True)
        if result is None:
            fail("%s printed no result" % args.workload)
        sys.exit(code)
    results = {}
    ok = True
    for w in WORKLOADS:
        print("== %s" % w)
        code, result = run_one(w, args.seed, args.seconds, args.trace, echo=True)
        ok = ok and code == 0 and result is not None and result["correct"]
        results[w] = result
    names = []
    for r in results.values():
        for name in (r or {}).get("metrics", {}):
            if name not in names:
                names.append(name)
    print()
    print("%-36s" % "metric" + "".join("%18s" % w for w in WORKLOADS))
    for name in names:
        row = "%-36s" % name
        for w in WORKLOADS:
            metric = ((results[w] or {}).get("metrics") or {}).get(name)
            row += "%18s" % ("-" if metric is None else "%.4g %s" % (metric["value"], metric["unit"]))
        print(row)
    for w in WORKLOADS:
        r = results[w] or {}
        print("%s: correct=%s attempted=%s failed=%s" % (w, r.get("correct"), r.get("attempted"),
                                                        r.get("failed")))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
