#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload commit_stream --seed 1 \
        --seconds 10 --trace 0

The build goes to `.bench_build/` (or `$CARGO_TARGET_DIR` when set), as do
the data directories and the traced run's Chrome trace.  The benchmark's
stdout is passed through; its last line is the JSON result.  Exits non-zero
without a result when the build or any correctness check fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def source_id():
    """The git commit when available, else a digest of the sources."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = os.path.join(build_dir(), "cmake")
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--inject-drift", action="store_true",
                        help="corrupt one view before the final gate "
                             "(the run must then fail)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir(), "work", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--source-id", source_id()]
    if args.inject_drift:
        cmd.append("--inject-drift")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("benchmark timed out", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        # Keep the report for the reader, but never as a result line.
        sys.stderr.write(stdout)
        return proc.returncode or 1
    sys.stdout.write(stdout)
    return 0 if lines and lines[-1].startswith("{") else 1


if __name__ == "__main__":
    sys.exit(main())
