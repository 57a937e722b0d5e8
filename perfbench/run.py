#!/usr/bin/env python3
"""Builds and runs the ShmCaffe end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload a4_inception --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The first run configures and builds the
benchmark and the libraries under src/ into .bench_build/perfbench (Release);
later runs rebuild only what changed.  --trace 1 writes the replay's spans
to .bench_build/traces/<workload>-seed<seed>.json (Chrome trace-event JSON,
opens in Perfetto).  --self-test runs the tests of the benchmark's own
output checks.  The last line of stdout is the JSON result.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
RUN_TIMEOUT_S = 170


def build() -> None:
    """Configures (once) and builds; exits non-zero if either fails."""
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(SOURCE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=False)
        if configure.returncode != 0:
            sys.exit("perfbench: configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs],
        stdout=log, stderr=log, check=False)
    if made.returncode != 0:
        sys.exit("perfbench: build failed")


def run(command: list) -> subprocess.CompletedProcess:
    """Runs `command`, relaying its stdout; exits non-zero on a timeout."""
    # The benchmark measures the pool's own default width.
    env = {k: v for k, v in os.environ.items() if k != "SHMCAFFE_THREADS"}
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S, check=False,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done


def expected_metrics(trace: int) -> dict:
    """Metric name -> unit that BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.self_test:
        return run([str(BUILD / "perfbench_checks_test")]).returncode

    command = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        TRACES.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(TRACES / f"{args.workload}-seed{args.seed}.json")]
    done = run(command)
    if done.returncode != 0:
        return done.returncode
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    reported = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if reported != expected_metrics(args.trace):
        print("perfbench: reported metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
