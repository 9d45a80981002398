#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steadiness.py --workload whatif_scan_250k --runs 5
    python3 perfbench/steadiness.py --workload http_serve --runs 10 --vary-seeds

Runs one workload `--runs` times through run.py (on one seed, or on
consecutive seeds with --vary-seeds, as the regression check does), plus one
run on a second seed, and prints each metric's median, quartiles and
interquartile spread as a share of the median: the figure a bound in
BENCHMARK.json must stay well above. Quartiles follow
statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def main():
    spec, bound_of = bounds()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--second-seed", type=int, default=1001)
    parser.add_argument("--vary-seeds", action="store_true")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    runs = []
    for r in range(args.runs):
        seed = args.seed + r if args.vary_seeds else args.seed
        runs.append(run_once(args.workload, seed, args.seconds))
        print(f"run {r + 1}/{args.runs} seed {seed}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
    second = run_once(args.workload, args.second_seed, args.seconds)

    print(f"\n{args.workload}: {args.runs} runs "
          f"({'seeds ' + str(args.seed) + '..' + str(args.seed + args.runs - 1) if args.vary_seeds else 'seed ' + str(args.seed)}), "
          f"{args.seconds}s each; second seed {args.second_seed}")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'2nd seed':>12} {'vs med':>8}")
    worst = 0.0
    for name in runs[0]:
        values = [run[name] for run in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bound_of.get(name)
        if name != "setup_s" and bound:
            worst = max(worst, spread / bound)
        off = (second[name] - med) / med if med else float("inf")
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.2%} {bound if bound else '-':>6} "
              f"{second[name]:>12.6g} {off:>+8.2%}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f} "
          f"(keep below 0.33)")


if __name__ == "__main__":
    main()
