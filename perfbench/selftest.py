#!/usr/bin/env python3
"""Self-test of the benchmark's crash and hang containment.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs perfbench/run.py twice on a short lstm_graph run. The first time
the watchdog kills the harness with SIGSEGV after K finished requests;
the second time it stops the harness with SIGSTOP, so the harness hangs
until the watchdog's inactivity timeout kills it. Both times the result
line must still parse, carry every end-to-end metric, report
correct = false, and count the in-flight and remaining requests as
failed. Exits 0 when both cases pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
ROOT = os.path.dirname(HERE)
K = 3


def check(fault, extra_env):
    env = dict(os.environ, PERFBENCH_FAULT=f"{fault}:{K}", **extra_env)
    r = subprocess.run(
        [sys.executable, RUN, "--workload", "lstm_graph", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert r.returncode == 0, f"{fault}: run.py exited {r.returncode}"
    res = json.loads(r.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], float), (name, m)
    assert res["correct"] is False, res
    # The signal lands while request K (0-based) is in flight.
    assert res["failed"] == res["attempted"] - K, res
    print(f"{fault}: ok ({res['failed']} of {res['attempted']} requests "
          "counted as failed)")


def main():
    check("SIGSEGV", {})
    check("SIGSTOP", {"PERFBENCH_HANG_SECONDS": "5"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
