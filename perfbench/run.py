#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout. The script builds
perfbench/perfbench.exe with dune into .bench_build, then runs one
workload in its own process and relays its standard output, whose last
line is the result JSON. The workloads, their pinned coverage digests
and the metric definitions are in perfbench/workloads.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


CHILD = None


def stop_child():
    """Kills the running child's whole process group (dune's compiler
    children too) and waits for it."""
    if CHILD is not None and CHILD.poll() is None:
        os.killpg(CHILD.pid, signal.SIGKILL)
        CHILD.wait()


def on_signal(signum, _frame):
    stop_child()
    sys.exit(128 + signum)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group. Returns the CompletedProcess,
    or None when it timed out and was killed."""
    global CHILD
    CHILD = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = CHILD.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_child()
        return None
    return subprocess.CompletedProcess(cmd, CHILD.returncode, out)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads)))
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project in %s: run from a repository checkout" % ROOT)

    build = [
        "dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--cache=disabled", "--profile=release", "./perfbench/perfbench.exe",
    ]
    built = run(build, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if built is None:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--expect", workloads[args.workload]["digest"],
    ]
    result = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE)
    if result is None:
        fail("run timed out")
    if result.returncode != 0:
        fail("benchmark exited with code %d" % result.returncode)
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
