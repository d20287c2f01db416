#!/usr/bin/env python3
"""Wall-clock benchmark of the CKKS engine on real ciphertexts.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ops_setc|deep_cnn|lstm_graph \
        --seed N --seconds S --trace 0|1

Builds perfbench_harness (perfbench/CMakeLists.txt) into
.bench_build/perfbench, then runs one workload as a sequence of
sessions. A session is one harness process: one set-up, then a fixed
number of requests. Each session runs under a watchdog and streams one
JSON line per finished request, so a crash (signal, abort, uncaught
exception) or a hang (no line for HANG_SECONDS, or the run over
RUN_DEADLINE seconds) loses nothing already measured: the in-flight
and remaining requests, of this session and of the sessions not yet
run, count as failed, and this script still prints its one-line
result. Diagnostics go to stderr.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.

Latency grows with process age (the workspace free list grows per
request), so every session has the same fixed length, the same on
every commit, and is never cut short or restarted: every run covers
the same process ages. --seconds sets only how many sessions run.
"""

import argparse
import fcntl
import json
import math
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")

# The batch each request carries: ciphertext pairs, images,
# sequence-steps.
BATCH = {"ops_setc": 4, "deep_cnn": 1, "lstm_graph": 4}
# Requests per session: constants, never measured. Each stays short of
# the process age at which the workload's latency starts to climb and
# spread (free-list growth), on this engine at the parent commit.
SESSION_REQUESTS = {"ops_setc": 20, "deep_cnn": 16, "lstm_graph": 12}
# Requests per second of --seconds, a constant: sessions per run =
# round(--seconds x rate / SESSION_REQUESTS), at least one.
REQUESTS_PER_SECOND = {"ops_setc": 1.7, "deep_cnn": 3.2, "lstm_graph": 2.2}
RUN_DEADLINE = 160   # watchdog: all sessions of a run, after the build
HANG_SECONDS = 60    # watchdog: longest gap between two lines

def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build the harness; returns False on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no library sources under {ROOT}/src")
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return os.access(HARNESS, os.X_OK)


def run_child(args, seed, requests, deadline, fault):
    """Run one session of the harness under the watchdog.

    Returns the parsed lines, "ok" / "timeout" / "exit <code>", and the
    session's peak RSS in MB. `fault` is None or (signal, K): send the
    signal once K requests of this session have finished.
    """
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(seed),
           "--requests", str(requests), "--setups", "1",
           "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    sel = selectors.DefaultSelector()
    sel.register(child.stdout, selectors.EVENT_READ)
    lines, buf, status, finished = [], b"", "ok", 0
    last = time.monotonic()
    hang = float(os.environ.get("PERFBENCH_HANG_SECONDS", HANG_SECONDS))
    while True:
        now = time.monotonic()
        if now > deadline or now - last > hang:
            status = "timeout"
            child.kill()
            break
        if not sel.select(timeout=1.0):
            continue
        chunk = os.read(child.stdout.fileno(), 65536)
        if not chunk:
            break
        last = time.monotonic()
        buf += chunk
        *done, buf = buf.split(b"\n")
        for raw in done:
            try:
                lines.append(json.loads(raw))
            except ValueError:
                log(f"unparsable line from harness: {raw[:200]!r}")
                continue
            finished += lines[-1].get("type") == "req"
            if fault and finished == fault[1] and child.poll() is None:
                log(f"self-test: sending {fault[0].name} after {finished} "
                    "requests")
                child.send_signal(fault[0])
    sel.close()
    child.stdout.close()
    _, wstatus, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(wstatus)
    if child.returncode != 0 and status == "ok":
        status = f"exit {child.returncode}"
    if status == "ok" and not any(l.get("type") == "end" for l in lines):
        status = "no end line"
    # ru_maxrss is in KiB on Linux.
    return lines, status, usage.ru_maxrss / 1024.0


def end_to_end(workload, reqs, setups, rss_mb):
    ms = [r["ms"] for r in reqs]
    p50 = statistics.median(ms)
    p90 = (statistics.quantiles(ms, n=10, method="inclusive")[8]
           if len(ms) > 1 else ms[0])
    if workload == "ops_setc":
        # Time inside BatchedEvaluator::multiply + rescaleInPlace, and
        # inside rotate: the paper's HMULT / HROTATE throughput analogue.
        hmult_s = [(r["t"]["batch.hmult"] + r["t"]["batch.rescale"]) / 1e3
                   for r in reqs]
        hrot_s = [r["t"]["batch.rotate"] / 1e3 for r in reqs]
    else:
        # No public entry point isolates HMULT here: whole request time.
        hmult_s = hrot_s = [m / 1e3 for m in ms]
    hmult = statistics.median(r["hmult"] for r in reqs)
    hrot = statistics.median(r["hrotate"] for r in reqs)
    errs = [r["err"] for r in reqs if r["err"] is not None]
    worst = max(errs) if errs else math.inf
    return {
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "hmult_per_s": hmult / statistics.median(hmult_s),
        "hrotate_per_s": hrot / statistics.median(hrot_s),
        "samples_per_s": BATCH[workload] * 1e3 / p50,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "precision_bits": -math.log2(worst) if 0 < worst < math.inf else 0.0,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BATCH))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        return 1

    per = SESSION_REQUESTS[args.workload]
    sessions = max(1, round(args.seconds * REQUESTS_PER_SECOND[args.workload]
                            / per))
    requests = sessions * per
    # Self-test hook: PERFBENCH_FAULT=SIGNAL:K sends SIGNAL to the
    # harness once K requests of the run have finished.
    fault = None
    if os.environ.get("PERFBENCH_FAULT"):
        name, k = os.environ["PERFBENCH_FAULT"].split(":")
        fault = (signal.Signals[name], int(k))

    deadline = time.monotonic() + RUN_DEADLINE
    reqs, setups, ends, rss_mb, status = [], [], [], 0.0, "ok"
    for j in range(sessions):
        session_fault = None
        if fault and 0 < fault[1] - len(reqs) <= per:
            session_fault = (fault[0], fault[1] - len(reqs))
        # Each session draws its own inputs: seed j of run --seed.
        lines, status, rss = run_child(args, args.seed * 1000 + j, per,
                                       deadline, session_fault)
        if j == 0:
            info = [l for l in lines if l.get("type") == "info"]
            if info:
                log("run info: " + json.dumps(info[0]))
        reqs += [l for l in lines if l.get("type") == "req"][:per]
        setups += [l["s"] for l in lines if l.get("type") == "setup"]
        ends += [l for l in lines if l.get("type") == "end"]
        rss_mb = max(rss_mb, rss)
        if status != "ok":
            log(f"harness {status} in session {j + 1} of {sessions} after "
                f"{len(reqs)} of {requests} requests; "
                f"{requests - len(reqs)} counted as failed")
            break
    failed = sum(1 for r in reqs if not r["ok"]) + requests - len(reqs)

    if args.trace:
        # Per-layer values are per-request means within a session; the
        # run reports their median over sessions, and dropped spans in
        # total.
        values = {}
        for m in spec["per_layer"] if ends else []:
            per_session = [e["layers"].get(m["name"], 0.0) for e in ends]
            values[m["name"]] = (sum(per_session)
                                 if m["name"] == "trace.spans_dropped"
                                 else statistics.median(per_session))
        wanted = spec["per_layer"]
    else:
        values = (end_to_end(args.workload, reqs, setups, rss_mb)
                  if reqs and setups else {})
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0 and status == "ok",
        "attempted": requests,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
