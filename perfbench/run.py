#!/usr/bin/env python3
"""Builds and runs the sim-scale benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py [--threads N] --workload evaluate|tune|serve \
        --seed N --seconds S --trace 0|1

Builds `perfbench/` (a Cargo package of its own) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with every
`CODELAYOUT_*` knob cleared except `CODELAYOUT_THREADS=N`, the sweep
worker count. The program's stdout, except its last line, goes to stderr;
the last line of this script's stdout is the result object. Exits non-zero
without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Whole-run limit, build included; the first build in a checkout gets more.
RUN_LIMIT_S = 175
FIRST_BUILD_LIMIT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(root, traced):
    """Metric names BENCHMARK.json lists for the mode, if it is present."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["evaluate", "tune", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--threads", type=int, default=2)
    args = ap.parse_args()

    start = time.monotonic()
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    exe = os.path.join(target, "release", "codelayout-perfbench")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CODELAYOUT_")}
    env["CARGO_TARGET_DIR"] = target
    env["CODELAYOUT_THREADS"] = str(args.threads)

    first_build = not os.path.exists(exe)
    limit = FIRST_BUILD_LIMIT_S if first_build else RUN_LIMIT_S
    build = ["cargo", "build", "--release", "--offline", "-q",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        subprocess.run(build, env=env, stdout=sys.stderr, check=True, timeout=limit)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    remaining = max(1.0, limit - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {limit}s")
    except OSError as e:
        fail(f"cannot run {exe}: {e}")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    names = expected_metrics(root, args.trace == 1)
    if names is not None and set(result["metrics"]) != names:
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ names)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
