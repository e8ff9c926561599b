#!/usr/bin/env python3
"""Self-check of the benchmark's determinism.

    python3 perfbench/selfcheck.py [--seeds 1,2] [--workloads decode,...]

For every workload, runs the traced round (run.py --trace 1) twice with
the first seed and once with the second. The count metrics below must
repeat exactly across the two same-seed runs, and must not change with
the seed either: request shapes are a fixed schedule and the seed only
draws token ids and tensor values. The inputs digest a traced run
prints must repeat for the same seed and differ for the other one.
Exits non-zero on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS = ["serve.tokens", "llm.decode_calls", "llm.prefill_rows",
          "llm.decode_minor_words", "kv.prefix_hits", "gemm.minor_words",
          "shared_prefix.llm.prefill_rows", "shared_prefix.kv.prefix_hits"]


def traced(workload, seed):
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if r.returncode != 0:
        sys.exit(f"selfcheck: {workload} seed {seed} failed "
                 f"(status {r.returncode})")
    lines = r.stdout.splitlines()
    digest = next(l.split("=", 1)[1] for l in lines
                  if l.startswith("inputs_digest="))
    metrics = json.loads(lines[-1])["metrics"]
    return digest, {k: metrics[k]["value"] for k in COUNTS}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1,2")
    p.add_argument("--workloads", default="decode,kernels")
    args = p.parse_args()
    a, b = (int(s) for s in args.seeds.split(","))
    ok = True
    for w in args.workloads.split(","):
        d1, c1 = traced(w, a)
        d2, c2 = traced(w, a)
        d3, c3 = traced(w, b)
        checks = [
            ("counts repeat for one seed", c1 == c2),
            ("counts do not depend on the seed", c1 == c3),
            ("inputs repeat for one seed", d1 == d2),
            ("inputs change with the seed", d1 != d3),
        ]
        for name, passed in checks:
            print(f"{w:14s} {name:34s} {'ok' if passed else 'FAIL'}")
            ok &= passed
        if not (c1 == c2 == c3):
            for k in COUNTS:
                print(f"  {k:26s} {c1[k]!r:>16} {c2[k]!r:>16} {c3[k]!r:>16}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
