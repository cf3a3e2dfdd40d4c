#!/usr/bin/env python3
"""Self-test of the benchmark: exact counts repeat between runs.

    python3 perfbench/test_counts.py [--seconds S] [workload ...]

Runs every workload (or those named) traced twice, under two different
seeds, and checks that each run is correct with no failed request, that
the Table-1 counts are m+1 = 8 (Enhanced) and m+3 = 10 (Basic) for the
GLS(7) polynomial, and that fgmres.iters_mean, par.exchanges_per_iter,
par.exchanges_per_iter_basic and net.bytes_per_req are identical in both
runs.  Exits non-zero on the first mismatch.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
EXACT = ("fgmres.iters_mean", "par.exchanges_per_iter",
         "par.exchanges_per_iter_basic", "net.bytes_per_req")
EXPECTED = {"par.exchanges_per_iter": 8, "par.exchanges_per_iter_basic": 10}


def traced(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s seed %d: run.py exited %d"
                         % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().split("\n")[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("workloads", nargs="*",
                    default=["paper_solve", "svc_churn", "wire_hot"])
    args = ap.parse_args()
    bad = 0
    for w in args.workloads:
        runs = [traced(w, seed, args.seconds) for seed in (1, 2)]
        for seed, r in zip((1, 2), runs):
            if not r["correct"] or r["failed"] != 0:
                print("FAIL %s seed %d: correct=%s failed=%d"
                      % (w, seed, r["correct"], r["failed"]))
                bad += 1
        vals = [{k: r["metrics"][k]["value"] for k in EXACT} for r in runs]
        for k in EXACT:
            same = vals[0][k] == vals[1][k]
            want = EXPECTED.get(k)
            ok = same and (want is None or vals[0][k] == want)
            print("%s %s %s: %s" % ("ok  " if ok else "FAIL", w, k,
                                   [v[k] for v in vals]))
            bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
