#!/usr/bin/env python3
"""End-to-end benchmark entry point (see README.md next to this file).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Builds the repository's libraries and the `optinter_e2e` driver from source
into `.bench_build/` at the repository root (Release, incremental), runs the
workload in a child process with its pool size and the program's own
observability switched off, and prints the driver's result as the last line
of standard output. Build output and diagnostics go to standard error.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "optinter_e2e")

# Kernel pool size per workload (README.md says why every workload runs at 1);
# the driver checks it received the same size.
THREADS = {"search_retrain": 1, "serve_open": 1}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to the benchmark (src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "optinter_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    for name, metric in result["metrics"].items():
        if not NAME_RE.match(name) or sorted(metric) != ["unit", "value"]:
            raise ValueError(f"metric {name}")
    expected = expected_metrics(trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        raise ValueError("metric names differ from BENCHMARK.json")


def selftest():
    subprocess.run([BINARY, "--selftest"], check=True, stdout=sys.stderr)
    listed = subprocess.run([BINARY, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    names = {"e2e": [], "layer": []}
    for row in filter(None, listed):
        kind, name, _unit = row.split()
        if not NAME_RE.match(name):
            fail(f"selftest: bad metric name {name!r}", 1)
        names[kind].append(name)
    for trace, kind in ((False, "e2e"), (True, "layer")):
        expected = expected_metrics(trace)
        if expected is not None and expected != names[kind]:
            fail(f"selftest: BENCHMARK.json {kind} metrics differ from the driver's", 1)
    print("selftest ok", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload not in THREADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(THREADS)}")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 1)
    if args.selftest:
        selftest()
        return

    env = dict(os.environ, OPTINTER_THREADS=str(THREADS[args.workload]), OPTINTER_OBS="0")
    work_dir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work_dir", work_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with {proc.returncode}", 1)
    try:
        check_result(lines[-1], bool(args.trace))
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(proc.stdout)
        fail(f"malformed result line ({e})", 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
