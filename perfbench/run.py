#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload campaign_full --seed 1 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root) and its output to stderr; the benchmark's own standard
output is passed through, so its last line is the result object. The
exit code is the benchmark's, or 2 when the repository sources are
missing or the build fails.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "anafault", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found under {ROOT}; the benchmark "
                  "builds the repository from source", file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)  # a relative setting is taken from the root
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 2
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench"), *sys.argv[1:]],
        cwd=ROOT, env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
