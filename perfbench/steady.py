#!/usr/bin/env python3
"""Steadiness check for the benchmark. Run from the repository root:

    python3 perfbench/steady.py

Runs the command of BENCHMARK.json untraced, for run_seconds, on every
workload it lists at seeds 1-10, twice per seed in two sets that alternate
run by run (A B A B ...), so drift in host speed lands on both sets alike.
For each (workload, metric) it prints each set's median and quartile spread
(q3 - q1 over the median, quartiles as `statistics.quantiles(values, n=4)`
gives them), the drift of set B's median from set A's, and the metric's
bound; then the largest spread or drift, as a share of its bound, over every
metric, setup_s included. Exits 1 if a run fails or a share exceeds 1.
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SETS = "AB"


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    # values[workload][set][metric] -> one value per run
    values = {w: {s: {} for s in SETS} for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            for s in SETS:
                argv = bench["command"] + ["--workload", w, "--seed", str(seed),
                                           "--seconds", str(bench["run_seconds"]),
                                           "--trace", "0"]
                out = subprocess.run(argv, capture_output=True, text=True)
                lines = out.stdout.strip().splitlines()
                res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                if out.returncode != 0 or not res or not res["correct"] or res["failed"]:
                    sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stdout[-1000:]}"
                             f"\n{out.stderr[-2000:]}")
                for name in bounds:
                    values[w][s].setdefault(name, []).append(res["metrics"][name]["value"])
                print(f"{w} set {s} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                      flush=True)

    print(f"\n{'workload':<22} {'metric':<12} {'median A':>11} {'spread A':>9}"
          f" {'median B':>11} {'spread B':>9} {'drift':>8} {'bound':>6}")
    worst = 0.0
    for w in workloads:
        for name, bound in bounds.items():
            a, b = values[w]["A"][name], values[w]["B"][name]
            drift = statistics.median(b) / statistics.median(a) - 1
            worst = max(worst, spread(a) / bound, spread(b) / bound, abs(drift) / bound)
            print(f"{w:<22} {name:<12} {statistics.median(a):>11.5g} {spread(a):>9.4f}"
                  f" {statistics.median(b):>11.5g} {spread(b):>9.4f} {drift:>8.4f} {bound:>6}")
    print(f"\nlargest spread or drift as a share of its bound: {worst:.3f}")
    sys.exit(0 if worst <= 1 else 1)


if __name__ == "__main__":
    main()
