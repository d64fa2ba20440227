#!/usr/bin/env python3
"""Smoke-size self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Runs every workload of BENCHMARK.json at smoke size (tiny inputs, --smoke)
with tracing off and on, on the default seed and on the hold-out seed, and
checks that each run passes its output checks and that the metric names and
units it emits are exactly the ones BENCHMARK.json declares. Exits 1 on the
first mismatch.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HOLDOUT_SEED = 20251


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in (DEFAULT_SEED, HOLDOUT_SEED):
            for trace in (0, 1):
                result = run(workload, seed, trace)
                label = "%s seed=%d trace=%d" % (workload, seed, trace)
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    sys.exit("%s: unexpected result keys %s" % (label, sorted(result)))
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    sys.exit("%s: output checks failed: %s" % (label, result))
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    sys.exit("%s: metrics differ from BENCHMARK.json\n  missing %s\n  extra %s" % (
                        label, sorted(set(expected[trace]) - set(got)),
                        sorted(set(got) - set(expected[trace]))))
                for name, metric in result["metrics"].items():
                    if not math.isfinite(metric["value"]):
                        sys.exit("%s: %s is not finite" % (label, name))
                print("ok  %s (%d metrics)" % (label, len(got)))
    print("selftest passed")


if __name__ == "__main__":
    main()
