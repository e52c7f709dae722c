#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from anywhere; the build lands in .bench_build/ at the repository root.
The first run configures and compiles the maxwarp libraries and the
perfbench program (about a minute on 4 cores); later runs only check that
the build is current. The last line of stdout is the program's result
object. Exit status is non-zero, with no result printed, when the build or
the run fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    """Configures once, then brings `targets` up to date."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "Makefile").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-25:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def expected_metrics(trace):
    """(name, unit) of each metric BENCHMARK.json promises for this mode,
    or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args):
    build(["perfbench"])
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="", file=sys.stderr)
        fail(f"perfbench exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(proc.stdout, end="", file=sys.stderr)
        fail("perfbench printed no result object")
    want = expected_metrics(args.trace)
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if want is not None and got != want:
        print(proc.stdout, end="", file=sys.stderr)
        fail("perfbench metrics differ from BENCHMARK.json: "
             f"{sorted(set(want) ^ set(got))}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def run_selftest():
    build(["perfbench_selftest"])
    proc = subprocess.run([str(BUILD / "perfbench_selftest")], cwd=ROOT)
    sys.exit(proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["analytics", "serve", "serve_faults"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        run_selftest()
    if args.workload is None:
        parser.error("--workload is required")
    run_workload(args)


if __name__ == "__main__":
    main()
