#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. Builds perfbench/bench.exe with dune
(the first build compiles the libraries it links), runs it, and passes
its report through. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the result also carries peak_rss_mb, the peak resident
memory of the benchmark process, read from the kernel's accounting of
the child when it exits. With --trace 1 a per-layer metric the workload
never reaches reads 0.

Exits non-zero without a result line if the build fails, a run fails
or times out, an output check fails, or the metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout[-4000:])
        fail("build failed")


def run(args):
    """Run bench.exe; return (report lines, result, peak RSS in MB)."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        fail(f"bench.exe exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result: {lines[-1]!r}")
    if not result["correct"] or result["attempted"] < 1:
        fail("output check failed")
    # ru_maxrss is in KiB on Linux
    return lines[:-1], result, usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if args.trace else "end_to_end"]}
    build()
    report, result, rss_mb = run(args)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        report.append(f"  {'peak_rss_mb':<30} {rss_mb:16.6f} MB")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if not got.items() <= want.items():
        fail(f"metrics {sorted(got.items() - want.items())} are not in "
             "BENCHMARK.json with these units")
    missing = want.keys() - got.keys()
    if missing and not args.trace:
        fail(f"missing metrics {sorted(missing)}")
    for name, unit in want.items():
        result["metrics"].setdefault(name, {"value": 0.0, "unit": unit})
    print("\n".join(report))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
