#!/usr/bin/env python3
"""Build the daemon and the benchmark harness from source, then run one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `tricluster` (the daemon, release) and `servebench` (the harness)
into $CARGO_TARGET_DIR, or `.bench_build` when it is unset, then runs the
harness. Inputs and ledgers live under `.servebench/` for the duration of
the run. The last line of stdout is the run's JSON result; everything else
goes to stderr. See servebench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        print("servebench: no crates/cli here; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # no-op for an absolute path
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "tricluster-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("servebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    harness = [
        os.path.join(target, "release", "servebench"),
        "--tricluster", os.path.join(target, "release", "tricluster"),
        "--work", os.path.join(ROOT, ".servebench"),
    ]
    return subprocess.run(harness + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
