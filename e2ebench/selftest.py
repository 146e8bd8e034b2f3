#!/usr/bin/env python3
"""Determinism self-check of the end-to-end benchmark.

    python3 e2ebench/selftest.py [--seconds N]

For each workload and for two seeds -- seed 1, used while the benchmark was
tuned, and the held-out seed 4242, reserved for checking later claims -- it
runs the workload twice untraced and once traced, and requires:

  * every run exits 0 with `"correct": true` and `"failed": 0`;
  * the virtual-time metrics (slo_violation_ratio, latency_s_*,
    bill_usd_per_query, cost_usd_per_query) and the virtual-time digest
    (served_mix, control_plane) or result digest (tpch_engine) are identical
    across the three runs, traced and untraced alike;
  * the JSON line holds exactly BENCHMARK.json's end_to_end metrics when
    untraced and its per_layer metrics when traced (when BENCHMARK.json is
    present at the repository root).

Exit code 0 when every check passes.
"""

import argparse
import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
import run  # noqa: E402

TUNING_SEED = 1
HELD_OUT_SEED = 4242
VIRTUAL_METRICS = (
    "slo_violation_ratio",
    "latency_s_p50.immediate", "latency_s_p50.relaxed",
    "latency_s_p50.best_effort",
    "latency_s_tail.immediate", "latency_s_tail.relaxed",
    "latency_s_tail.best_effort",
    "bill_usd_per_query", "cost_usd_per_query",
)
DIGEST = re.compile(r"(virtual_digest|result_digest)=([0-9a-f]{16})")


def run_once(workload, seed, seconds, trace):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    digests = sorted(set(m.group(0) for m in DIGEST.finditer(done.stdout)))
    virtual = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 2 and parts[0] in VIRTUAL_METRICS:
            virtual[parts[0]] = parts[1]
    return done.returncode, result, digests, virtual, done.stderr


def main():
    parser = argparse.ArgumentParser(description="determinism self-check")
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    if not run.build():
        return 1
    spec = None
    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
        failures += 0 if ok else 1

    for workload in run.WORKLOADS:
        for seed in (TUNING_SEED, HELD_OUT_SEED):
            runs = [run_once(workload, seed, args.seconds, trace)
                    for trace in (False, False, True)]
            for i, (code, result, _, _, stderr) in enumerate(runs):
                ok = (code == 0 and result.get("correct") is True
                      and result.get("failed") == 0)
                check(ok, f"{workload} seed={seed} run {i} correct"
                      + ("" if ok else f": exit {code} {stderr[-500:]}"))
            first = runs[0]
            check(all(r[2] == first[2] and r[2] for r in runs),
                  f"{workload} seed={seed} digests identical: {first[2]}")
            check(all(r[3] == first[3] for r in runs),
                  f"{workload} seed={seed} virtual-time metrics identical")
            if spec is not None:
                for (code, result, _, _, _), key in zip(
                        runs, ("end_to_end", "end_to_end", "per_layer")):
                    want = [m["name"] for m in spec[key]]
                    got = list(result.get("metrics", {}))
                    check(got == want,
                          f"{workload} seed={seed} JSON holds the {key} list")
    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILED")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
