#!/usr/bin/env python3
"""Runs every workload on several seeds and reports each end-to-end
metric's median and spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--out FILE]

The spread is the distance between the first and third quartile of the
runs (statistics.quantiles(values, n=4)) as a share of their median. A
metric is "ok" when its spread is below a third of its bound, "wide"
when it is below the bound, and "OVER" beyond it; the exit code is 1 when
any run fails or any metric is OVER. --out writes every run's result and
provenance plus the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def one_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed,
                                                     out.stderr))
    info = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if rest.startswith("{"):
            info[key] = json.loads(rest)
    return json.loads(lines[-1]), info


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    report = {"runs": {}, "summary": {}}
    steady = True
    for w in workloads:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, info = one_run(w, seed, spec["run_seconds"], args.trace)
            results.append({"seed": seed, "result": result, **info})
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" %
                      (w, seed, result["correct"], result["failed"]))
                steady = False
        report["runs"][w] = results
        summary = {}
        for name in results[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            summary[name] = {"median": median, "spread": spread}
            flag = ""
            if name in bounds and args.trace == 0:
                bound = bounds[name]
                flag = ("ok" if spread < bound / 3 else
                        "wide" if spread <= bound else "OVER") + \
                    " (bound %.2f)" % bound
                steady = steady and spread <= bound
            print("%-12s %-30s median %-12.6g spread %.3f %s" %
                  (w, name, median, spread, flag))
        report["summary"][w] = summary
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
