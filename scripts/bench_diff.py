#!/usr/bin/env python3
"""Compare a fresh bench JSON against the committed baseline.

Every bench binary writes its summary rows with `--json <path>` (see
bench/bench_util.h); the committed BENCH_E*.json files in the repo root
are the recorded experiment results.  This script re-runs the comparison
side of that loop: it pairs each fresh row with the baseline row that has
the same config fields (below) and flags metric fields that regressed past
a relative threshold.  Rows may come in any order; rows sharing one config
pair in the order they appear.  A baseline row with no fresh partner, or a
fresh row with no baseline partner (a missing row, or a config field that
changed), is an error: the workloads are not comparable.

Field classification (by name, documented here because the JSON carries
no units):

* metric fields — timings (`*_ms`, `*_us`, `*_ns`, `*_nanos`,
  `*_seconds`, `*_s`), sizes (`*_bytes`), slowdowns (`*_slowdown`: a
  latency under load over the same latency without it), and ratios
  (`*_x`, `speedup*`, `*throughput*`, `*_per_sec`).  Compared with the
  relative threshold; direction-aware (time/bytes/slowdowns regress
  upward, speedups/throughput regress downward).
* percentage fields — `*_pct` (overheads and their spreads, lower is
  better).  They sit near 0 and can be negative, so a ratio means
  nothing: they are compared by absolute difference, and regress when
  the fresh value exceeds the baseline by more than `threshold * 100`
  percentage points (50 points at the default).
* config fields — everything else (`rows`, `partitions`, `workers`,
  `cores`, counts such as `spans_per_commit`, ...), plus every
  non-numeric field.  They identify a row: rows pair by them, so a value
  the baseline does not have means the workload changed and the
  comparison is meaningless, which is reported as an error rather than a
  regression.

The default threshold is deliberately generous (50%) — bench numbers on
shared CI hosts are noisy, and the goal is catching order-of-magnitude
slips (a dropped cache, an accidental O(n^2)), not 5% drift.

Usage:
  bench_diff.py BASELINE.json FRESH.json [--threshold 0.5]
  bench_diff.py --run BENCH_BINARY BASELINE.json [--threshold 0.5]

The --run form executes `BENCH_BINARY --json <tmpfile>` first and then
compares; it is what the opt-in ctest wiring (MVIEW_BENCH_DIFF) uses.
Exit status: 0 clean, 1 regression(s), 2 usage/row-shape errors.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

LOWER_IS_BETTER = ("_ms", "_us", "_ns", "_nanos", "_seconds", "_s", "_sec",
                   "_bytes", "_slowdown")
HIGHER_IS_BETTER_HINTS = ("speedup", "throughput", "_per_sec", "reduction")


def classify(name):
    """Returns 'lower', 'higher', 'points', or 'config' for a field name."""
    lowered = name.lower()
    if lowered.endswith("_pct"):
        return "points"
    if any(hint in lowered for hint in HIGHER_IS_BETTER_HINTS):
        return "higher"
    if lowered.endswith("_x"):
        return "higher"
    if lowered.endswith(LOWER_IS_BETTER):
        return "lower"
    return "config"


def load_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        rows = json.load(f)
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ValueError(f"{path}: expected a JSON array of objects")
    return rows


def is_metric(field, value):
    return isinstance(value, (int, float)) and classify(field) != "config"


def config_key(row):
    """The row's config fields and their values, as a hashable key."""
    return tuple(sorted((field, json.dumps(value))
                        for field, value in row.items()
                        if not is_metric(field, value)))


def describe(key):
    return "{" + ", ".join(f"{field}={value}" for field, value in key) + "}"


def pair_rows(baseline_rows, fresh_rows):
    """Pairs rows by config; returns (pairs of indices, errors)."""
    unpaired = {}  # config key -> fresh row indices not yet paired, in order
    for j, row in enumerate(fresh_rows):
        unpaired.setdefault(config_key(row), []).append(j)
    pairs, errors = [], []
    for i, row in enumerate(baseline_rows):
        key = config_key(row)
        if unpaired.get(key):
            pairs.append((i, unpaired[key].pop(0)))
        else:
            errors.append(f"baseline row {i} {describe(key)} has no fresh "
                          f"row with that config; workloads are not "
                          f"comparable")
    for key, rows in unpaired.items():
        for j in rows:
            errors.append(f"fresh row {j} {describe(key)} has no baseline "
                          f"row with that config; workloads are not "
                          f"comparable")
    return pairs, errors


def compare(baseline_rows, fresh_rows, threshold):
    """Returns (errors, regressions) as lists of message strings."""
    pairs, errors = pair_rows(baseline_rows, fresh_rows)
    regressions = []
    for i, j in pairs:
        base, fresh = baseline_rows[i], fresh_rows[j]
        for field in sorted(set(base) & set(fresh)):
            b, f = base[field], fresh[field]
            if not is_metric(field, b) or not is_metric(field, f):
                continue
            kind = classify(field)
            if kind == "points":
                points = f - b
                if points > threshold * 100.0:
                    regressions.append(
                        f"row {i}: '{field}' {b:g} -> {f:g} "
                        f"(+{points:.2f} points, threshold "
                        f"{threshold * 100.0:.0f} points)"
                    )
                continue
            if b <= 0 or f <= 0:
                continue  # degenerate measurement; nothing to compare
            ratio = f / b if kind == "lower" else b / f
            if ratio > 1.0 + threshold:
                direction = "slower" if kind == "lower" else "lower"
                regressions.append(
                    f"row {i}: '{field}' {b:g} -> {f:g} "
                    f"({ratio:.2f}x {direction}, threshold {1.0 + threshold:.2f}x)"
                )
    return errors, regressions


def main():
    parser = argparse.ArgumentParser(
        description="Diff bench JSON against a committed baseline."
    )
    parser.add_argument(
        "--run",
        metavar="BINARY",
        help="run BINARY with --json to a temp file and diff that output",
    )
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument(
        "fresh", nargs="?", help="fresh bench JSON (omit with --run)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="relative regression threshold (default 0.5 = 50%%)",
    )
    args = parser.parse_args()
    if (args.fresh is None) == (args.run is None):
        parser.error("pass exactly one of FRESH or --run BINARY")

    try:
        if args.run:
            fd, fresh_path = tempfile.mkstemp(suffix=".json", prefix="bench_")
            os.close(fd)
            try:
                subprocess.run([args.run, "--json", fresh_path], check=True)
                fresh_rows = load_rows(fresh_path)
            finally:
                os.unlink(fresh_path)
        else:
            fresh_rows = load_rows(args.fresh)
        baseline_rows = load_rows(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError,
            subprocess.CalledProcessError) as exc:
        print(f"bench_diff: {exc}", file=sys.stderr)
        return 2

    errors, regressions = compare(baseline_rows, fresh_rows, args.threshold)
    for message in errors:
        print(f"ERROR: {message}")
    for message in regressions:
        print(f"REGRESSION: {message}")
    if errors:
        return 2
    if regressions:
        print(f"{len(regressions)} regression(s) vs {args.baseline}")
        return 1
    print(
        f"OK: {len(baseline_rows)} row(s) within "
        f"{args.threshold:.0%} of {args.baseline}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
