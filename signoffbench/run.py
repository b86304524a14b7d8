#!/usr/bin/env python3
"""Build OpenSNA and run one workload of the signoff benchmark.

    python3 signoffbench/run.py --workload wavefront_aligned --seed 1 \
        --seconds 10 --trace 0
    python3 signoffbench/run.py --check

Run from the root of a source checkout. The first call configures and
builds the library and the driver into .bench_build/signoffbench (a few
minutes); later calls only rebuild what changed. The driver's last line of
standard output, one JSON object, is repeated as this script's last line.

--check builds, runs the helper unit checks, then every workload at smoke
size with --trace 0 and --trace 1, and asserts that each prints exactly the
metrics BENCHMARK.json names, with their units, and no failed operation.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "signoffbench"
OUT = BUILD / "out"
WORKLOADS = ("wavefront_aligned", "flat_cold", "eco_stream")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def run(cmd, timeout, capture=False):
    """Run cmd to completion, killing it on timeout. Its stdout goes to this
    script's stderr unless captured. Returns (exit code, captured text)."""
    proc = subprocess.Popen(cmd, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return 124, ""
    return proc.returncode, out or ""


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        code, _ = run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT)
        if code != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_TIMEOUT)
    OUT.mkdir(parents=True, exist_ok=True)
    return code == 0


def bench(args):
    """Run the driver; returns (exit code, parsed last line or None)."""
    cmd = [str(BUILD / "signoff_bench"), "--scratch", str(OUT)] + args
    code, out = run(cmd, RUN_TIMEOUT, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        return code or 1, None
    try:
        return 0, json.loads(lines[-1])
    except json.JSONDecodeError:
        return 1, None


def check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if tuple(w["name"] for w in spec["workloads"]) != WORKLOADS:
        print("BENCHMARK.json names other workloads", file=sys.stderr)
        return 1
    code, _ = run([str(BUILD / "signoffbench_selftest")], RUN_TIMEOUT)
    ok = code == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = bench(["--workload", workload, "--seed", "1",
                                  "--seconds", "1", "--trace", str(trace),
                                  "--smoke"])
            got = {} if result is None else {
                k: v["unit"] for k, v in result["metrics"].items()}
            good = (result is not None and result["correct"]
                    and result["failed"] == 0 and got == want[trace])
            print(f"{workload} trace={trace}: {'ok' if good else 'FAILED'}"
                  f" (exit {code}, missing {sorted(set(want[trace]) - set(got))},"
                  f" unexpected {sorted(set(got) - set(want[trace]))})",
                  file=sys.stderr)
            ok = ok and good
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true")
    a = p.parse_args()
    if not a.check and a.workload is None:
        p.error("--workload is required")
    if not build():
        print("build failed", file=sys.stderr)
        return 2
    if a.check:
        return check()
    code, result = bench(["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds), "--trace", str(a.trace)])
    if result is None:
        print("benchmark produced no result", file=sys.stderr)
        return code
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
