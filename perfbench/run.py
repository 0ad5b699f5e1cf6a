#!/usr/bin/env python3
"""Builds and runs the StarShare end-to-end benchmark.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench in Release mode, runs the arithmetic self-check, then
runs one workload. Build output goes to stderr; the benchmark's stdout is
passed through, so its last line is the result JSON. Exits non-zero without
printing a result when the sources are missing or the build or self-check
fails.
"""

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_reports", "fact_cube", "append_refresh", "server_reports")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {result.returncode}")


def git_sha(root):
    """Short HEAD SHA with -dirty for uncommitted changes; 'unknown' when
    the tree is not a git checkout."""
    if shutil.which("git") is None or not (root / ".git").exists():
        return "unknown"
    try:
        sha = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(root), "--no-optional-locks", "status",
             "--porcelain"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be 1..60")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "core" / "engine.h").is_file():
        fail(f"StarShare sources not found under {root / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    build_dir = root / ".bench_build" / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(build_dir), "-j", "4", "--target",
               "perfbench", "perfbench_selfcheck"])
    run_quiet([str(build_dir / "perfbench_selfcheck")])

    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--git-sha", git_sha(root),
           "--out-dir", str(build_dir)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
