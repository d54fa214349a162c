#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flat|dorms --seed N --seconds S --trace 0|1

Builds the benchmark (`perfbench/`, a cargo package of its own) and the
release `imcf` binary it drives into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the benchmark, and relays its output. The last line
of standard output is the JSON result. A run whose correctness gate fails
prints its result (`"correct": false`) and exits non-zero. A run that
reports other metrics than BENCHMARK.json names for the mode (`end_to_end`
for `--trace 0`, `per_layer` for `--trace 1`), or that fails in any other
way, exits non-zero without a result line.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run measures for --seconds and then restarts, checks and cleans up; it
# must end well inside the three minutes a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    for manifest, extra in (
        ("perfbench/Cargo.toml", []),
        ("Cargo.toml", ["-p", "imcf-cli"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "-q",
               "--manifest-path", os.path.join(ROOT, manifest)] + extra
        # Cargo's output goes to stderr so the result stays the last line
        # of standard output.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, args, target):
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--imcf", os.path.join(target, "release", "imcf"),
           "--work", os.path.join(target, "perfbench-work")]
    # A session of its own, so a timeout stops the `imcf serve` child too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["flat", "dorms"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    code, out = run(os.path.join(target, "release", "imcf-perfbench"), args, target)

    lines = out.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    print("\n".join(body))
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail(f"benchmark exited with {code} without a result")
    if code != 0 or not result["correct"]:
        # A failed correctness gate: the result (correct: false) is shown,
        # and the run fails.
        print(last)
        fail(f"a correctness gate failed (exit {code})")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")
    print(last)


if __name__ == "__main__":
    main()
