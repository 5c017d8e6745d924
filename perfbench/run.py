#!/usr/bin/env python3
"""Builds the cfv library, cfv_serve and the benchmark program from this
checkout's sources, runs one workload, and prints its result line.

    python3 perfbench/run.py --workload cold-1t --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Builds go to $CARGO_TARGET_DIR (default
.bench_build) under the checkout; a traced run (--trace 1) also writes its
spans to <build>/traces/<workload>-seed<seed>.json.  The last line of
standard output is the JSON result; build logs go to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-1t", "serve-4c")
# A run ends near --seconds plus set-up; this only stops a hung run before
# the 180 s limit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds cfvbench and cfv_serve (incremental)."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", cmake_dir, "-j", jobs,
           "--target", "cfvbench", "cfv_serve"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return (os.path.join(cmake_dir, "cfvbench"),
            os.path.join(cmake_dir, "cfv", "tools", "cfv_serve"))


def stop_group(pgid):
    """Kills what is left of process group pgid (a cfv_serve orphaned by
    a crashed or hung cfvbench) and waits until the group is empty."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hook: alter the answer of timed operation K before its check.
    ap.add_argument("--corrupt-op", type=int, default=-1,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src/core/Api.h", "tools/cfv_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run.py builds cfv from the checkout "
                 "around perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    bench, serve = build(build_dir)

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--serve-bin", serve,
           "--corrupt-op", str(args.corrupt_op)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    # A process group of its own, so a hung run is stopped with every
    # process it started (the serving workload's cfv_serve).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    stop_group(proc.pid)
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"cfvbench exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("cfvbench printed no result")
    print(lines[-1])


if __name__ == "__main__":
    main()
