#!/usr/bin/env python3
"""Steadiness (A/A) check: repeated runs of one build, spread per metric.

Usage (from the repository root):

    python3 e2ebench/aa_check.py --runs 10 [--sets 2]
        [--workloads commit_stream,...] [--first-seed 1] [--seconds 15]
        [--out aa.json]

Runs `e2ebench/run.py` once per seed for each workload (seeds
first-seed .. first-seed+runs-1), `--sets` times over, as a benchmark
gate does, then prints for every end-to-end metric of each set
its median, quartiles (`statistics.quantiles(values, n=4)`), min and max,
and the spread (Q3 - Q1) / median.  A metric is flagged `NOISY` when its
spread exceeds its bound from BENCHMARK.json and `WIDE` when it exceeds a
third of it (the target the benchmark is tuned to); every metric with a
bound is flagged alike, `setup_s` included.  With two or more sets, a
metric whose later set's median is worse than the first set's by more
than its bound is flagged `SHIFT`.  Informational rows of the readable
table (`host_steal_frac`, the p99s, ...) are listed unflagged: high steal
explains wide spreads.  Exits non-zero when any run fails or any metric
is NOISY or SHIFT.

The benchmark's design follows noise rules, each backed by a probe of the
same program run repeatedly on a 4-core VM (README.md has the rest):

 1. Device fsync.  1-row autocommit p50 was 250-430 us and p99 1.5-8 ms
    with the data directory on an ext4 disk, 48-71 us / 130-200 us on
    tmpfs.  fsync stays on (the default `Storage::Options`); the
    filesystem is recorded in every result's fingerprint, and the WAL's
    fsyncs/bytes per commit are per-layer counts.
 2. Competing closed loops.  A free-running reader beside a free-running
    writer swung writer throughput 2.9k-7.5k commits/s over 4 identical
    runs (p99 0.2-4.8 ms).  Mixed read/write traffic is paced open-loop at
    fixed rates and timed from each request's due time; only the
    single-connection commit_stream is closed-loop.
 3. Short phases and single-shot timings.  ~0.15 s commit runs spread
    +-15% on p50, ~5 s runs +-4% (p99 +-8%); single CHECKPOINT/reopen
    timings +-12%.  Throughput is completed ops / elapsed time, single-shot
    operations are repeated and their median taken, base sizes are kept
    stationary, and caches are warmed before timing.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    metrics = {k: v["value"]
               for k, v in json.loads(lines[-1])["metrics"].items()}
    # The readable table also carries the informational rows.
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and fields[0] not in metrics:
            try:
                metrics[fields[0]] = float(fields[1])
            except ValueError:
                pass
    return metrics


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    gated = {m["name"]: m for m in bench["end_to_end"]}
    summary = {}
    bad = False
    for workload in args.workloads.split(","):
        summary[workload] = []
        for run_set in range(args.sets):
            samples = {}
            seeds = range(args.first_seed, args.first_seed + args.runs)
            for seed in seeds:
                metrics = run_once(workload, seed, args.seconds)
                if metrics is None:
                    print(f"{workload} seed {seed}: run failed")
                    bad = True
                    continue
                for name, value in metrics.items():
                    samples.setdefault(name, []).append(value)
            print(f"\n{workload} set {run_set + 1} ({args.runs} runs)")
            print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
            stats = {}
            for name, values in samples.items():
                if len(values) < 2:
                    continue
                s = summarize(values)
                s["values"] = values
                stats[name] = s
                flag, bound = "", 0.0
                if name in gated:
                    bound = gated[name]["bound"]
                    if s["spread"] > bound:
                        flag, bad = "NOISY", True
                    elif s["spread"] > bound / 3:
                        flag = "WIDE"
                    if run_set > 0 and name in summary[workload][0]:
                        first = summary[workload][0][name]["median"]
                        shift = (s["median"] - first) / first if first else 0
                        if gated[name]["better"] == "higher":
                            shift = -shift
                        s["shift"] = shift
                        if shift > bound:
                            flag, bad = flag + " SHIFT", True
                print(f"  {name:<18} {s['median']:>12.4f} {s['q1']:>12.4f} "
                      f"{s['q3']:>12.4f} {s['min']:>12.4f} "
                      f"{s['max']:>12.4f} {s['spread']:>7.3f} "
                      f"{bound:>6.2f} {flag}")
            summary[workload].append(stats)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
