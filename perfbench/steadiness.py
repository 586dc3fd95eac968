#!/usr/bin/env python3
"""Steadiness tool: how well repeated runs of the same code agree.

    python3 perfbench/steadiness.py --runs 10 [--seconds 10] [--seed-base 1]
                                    [--out table.md]

Runs each workload of BENCHMARK.json --runs times through perfbench/run.py,
alternating workloads (fig9, sa-long, ..., fig9, sa-long, ...), run i with seed
seed-base + i.  For every end-to-end metric it reports the median, the
interquartile range (statistics.quantiles, n=4) and IQR/median, for the
normalised figures the benchmark reports and for the raw wall-clock
figures it prints on its "perfbench-raw" stderr line.  It also reports
whether every run was correct and whether the failed share was the same in
every run.  The table is printed as Markdown (and written to --out).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRICS = ["setup_s", "solve_s", "evals_per_s", "peak_rss_mb"]
RAW_METRICS = ["setup_s", "solve_s", "evals_per_s"]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench-raw "):
            raw = json.loads(line[len("perfbench-raw "):])
    return result, raw


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    norm = {w: {m: [] for m in METRICS} for w in workloads}
    raw = {w: {m: [] for m in RAW_METRICS} for w in workloads}
    shares = {w: set() for w in workloads}
    correct = {w: True for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            result, raw_line = run_once(w, args.seed_base + i, args.seconds)
            for m in METRICS:
                norm[w][m].append(result["metrics"][m]["value"])
            for m in RAW_METRICS:
                raw[w][m].append(raw_line[m])
            shares[w].add((result["failed"] / result["attempted"]))
            correct[w] = correct[w] and result["correct"]
            print("run %d %s: %s" % (i + 1, w, json.dumps(
                {m: round(result["metrics"][m]["value"], 6) for m in METRICS})),
                file=sys.stderr)

    lines = ["| workload | metric | median | IQR | IQR/median | raw median | raw IQR/median |",
             "|---|---|---|---|---|---|---|"]
    for w in workloads:
        for m in METRICS:
            med, iqr = spread(norm[w][m])
            row = "| %s | %s | %.6g | %.6g | %.1f %% |" % (w, m, med, iqr, 100 * iqr / med)
            if m in RAW_METRICS:
                rmed, riqr = spread(raw[w][m])
                row += " %.6g | %.1f %% |" % (rmed, 100 * riqr / rmed)
            else:
                row += " — | — |"
            lines.append(row)
    lines.append("")
    for w in workloads:
        lines.append("- %s: %d runs, all correct: %s, failed share per run: %s" % (
            w, args.runs, "yes" if correct[w] else "NO",
            ", ".join("%.6f" % s for s in sorted(shares[w]))))
    table = "\n".join(lines)
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table + "\n")


if __name__ == "__main__":
    main()
