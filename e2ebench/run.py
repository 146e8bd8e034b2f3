#!/usr/bin/env python3
"""Builds the engine and the end-to-end benchmark from source, then runs one
workload in its own process.

    python3 e2ebench/run.py --workload <tpch_engine|served_mix|control_plane>
                            --seed <n> --seconds <n> --trace <0|1>

Run it from the repository root. The build goes to .bench_build/e2ebench
(Release, all cores). The workload prints every metric by name, unit and
direction; its last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). The exit code is non-zero when the build
fails, when any result is wrong, or when an operation fails.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "pixels_e2e")
WORKLOADS = ("tpch_engine", "served_mix", "control_plane")
# A run must end well inside three minutes; the build has its own budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it. On timeout the
    whole group (make, compilers) is killed and reaped. Returns the exit
    code, or None on timeout."""
    child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return child.wait(timeout=timeout)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        if isinstance(sys.exc_info()[1], subprocess.TimeoutExpired):
            return None
        raise


def build():
    """Configures (once) and builds the benchmark binary. Returns True on
    success; the build log goes to .bench_build/e2ebench/build.log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return build_locked(log_path)


def build_locked(log_path):
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "pixels_e2e",
                      "-j", str(os.cpu_count() or 1)])
        # Compiler scratch files stay inside the build tree too.
        tmp = os.path.join(BUILD_DIR, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for cmd in steps:
            try:
                code = run_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                                 stderr=subprocess.STDOUT, env=env)
            except OSError as err:
                print(f"build step failed: {err}", file=sys.stderr)
                return False
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print(f"build failed ({' '.join(cmd)}):\n{tail}",
                      file=sys.stderr)
                return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--span-out", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    code = run_group(cmd, RUN_TIMEOUT_S)
    if code is None:
        print(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
