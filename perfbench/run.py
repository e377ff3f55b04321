#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <explore-deep|fleet-mixed|fuzz-hunt> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` binary (default
features, for the end-to-end metrics) and the `perfbench-barrier` probe
(`dl-explore` with its `obs` timers, read only by the traced run) in
release mode under `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the binary. Cargo output goes to standard error; the last line of standard
output is the benchmark's JSON result. Exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(target_dir, package):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST, "-p", package,
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Separate invocations keep the probe's `obs` feature out of the
    # benchmark binary's dependency graph.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: building {package} failed")
    return os.path.join(target_dir, "release", package)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bench = build(target_dir, "perfbench")
    probe = build(target_dir, "perfbench-barrier")

    cmd = [
        bench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        cmd += ["--barrier-probe", probe]
    done = subprocess.run(cmd)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
