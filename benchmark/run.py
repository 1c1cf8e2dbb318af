#!/usr/bin/env python3
"""Build and run the CSCV benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark twice from source (without and with the `trace`
feature) under $CARGO_TARGET_DIR, or `benchmark/target` when it is
unset. `--trace 0` runs the untraced build and passes its output
through. `--trace 1` first runs the untraced build with the same
arguments, then the traced build, which reports the per-layer metrics
and the tracing overhead against the untraced run. The last line of
standard output is the result object.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Each run must end well inside the harness limit; a hung child is killed.
RUN_TIMEOUT_S = 170


def build(target_root, traced):
    """Build one variant into its own target directory; return the binary."""
    target = os.path.join(target_root, "traced" if traced else "plain")
    cmd = ["cargo", "build", "--release", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"),
           "--target-dir", target]
    if traced:
        cmd += ["--features", "trace"]
    # Cargo's output goes to stderr so stdout carries only results.
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target, "release", "cscv-benchmark")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    try:
        plain = build(target_root, traced=False)
        traced = build(target_root, traced=True)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    common = ["--workload", args.workload, "--seed", args.seed,
              "--seconds", args.seconds]
    try:
        if args.trace == "0":
            return subprocess.run([plain, *common, "--trace", "0"],
                                  timeout=RUN_TIMEOUT_S).returncode
        untraced = subprocess.run([plain, *common, "--trace", "0"],
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        if untraced.returncode != 0:
            return untraced.returncode
        lines = untraced.stdout.splitlines()
        if not lines:
            print("run.py: the untraced run printed nothing", file=sys.stderr)
            return 1
        # Keep the untraced run's record, off the result stream.
        sys.stderr.write(untraced.stdout)
        return subprocess.run(
            [traced, *common, "--trace", "1", "--untraced-json", lines[-1]],
            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as e:
        print(f"run.py: timed out: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
