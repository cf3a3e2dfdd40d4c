#!/usr/bin/env python3
"""Build and run the EDD-FGMRES benchmark.

    python3 perfbench/run.py --workload paper_solve|svc_churn|wire_hot \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
library from ../src and the benchmark binary in this directory (CMake,
Release) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs reuse the build.  Prints a provenance line, one line per
metric, and as the last line the JSON result
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_solve", "svc_churn", "wire_hot")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then build the binary; returns its path or None."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log)
        if rc != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    rc = subprocess.call(
        ["cmake", "--build", bdir, "-j", jobs, "--target", "edd_bench"],
        stdout=log, stderr=log)
    exe = os.path.join(bdir, "edd_bench")
    return exe if rc == 0 and os.path.isfile(exe) else None


def git(*args):
    try:
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=20).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def caches():
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            rd = lambda n: open(os.path.join(base, idx, n)).read().strip()
            out["L%s%s" % (rd("level"), {"Data": "d", "Instruction": "i"}
                                        .get(rd("type"), ""))] = rd("size")
        except OSError:
            pass
    return out


def provenance(args):
    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha or None,
        "dirty": bool(git("status", "--porcelain")) if sha else None,
        "source_sha256": source_digest(),
        "build_type": "Release",
        "nproc": os.cpu_count(),
        "caches": caches(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 3
    rundir = os.path.join(bdir, "run")
    os.makedirs(rundir, exist_ok=True)

    print("# provenance " + json.dumps(provenance(args), sort_keys=True),
          flush=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rundir", os.path.relpath(rundir, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print("run.py: benchmark exited %d without a result" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 5
    result = json.loads(lines[-1])
    missing = [n for n in expected_metrics(args.trace)
               if n not in result["metrics"]]
    if missing:
        print("run.py: metrics missing from the result: " + ", ".join(missing),
              file=sys.stderr)
        return 6
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
