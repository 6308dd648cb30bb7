#!/usr/bin/env python3
"""Build and run the benchmark of record (see benchmark/README.md).

    python3 benchmark/run.py --workload node_mtat --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark package (benchmark/CMakeLists.txt, which compiles ../src) into
.bench_build/; later calls rebuild incrementally. The benchmark binary's output
is passed through, and its last line — one JSON object with "correct",
"attempted", "failed" and "metrics" — is checked against BENCHMARK.json
before it is printed as this script's last line. Any failure exits non-zero
without printing a result.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "mtat_benchmark"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not (ROOT / "src" / "sim" / "colocation_sim.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", str(PACKAGE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    if not (BUILD / "CMakeCache.txt").is_file() or not run_quiet(["cmake", str(BUILD)]):
        shutil.rmtree(BUILD, ignore_errors=True)
        if not run_quiet(configure):
            fail("configure failed")
    if not run_quiet(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 2)]):
        fail("build failed")


def source_digest():
    h = hashlib.sha256()
    for base in (ROOT / "src", PACKAGE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cc", ".in", ".txt"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last line of the benchmark binary's output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a non-negative integer")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metric set differs from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} is malformed: {m}")
        if not math.isfinite(m["value"]):
            fail(f"metric {name} is not finite")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["node_mtat", "fleet_healthy", "fleet_storm"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    # The simulator's bench knobs (MTAT_SCALE, MTAT_FAULTS, ...) would
    # reconfigure what is measured; refuse rather than measure something else.
    knobs = sorted(k for k in os.environ if k.startswith("MTAT_"))
    if knobs:
        fail(f"refusing to run with {', '.join(knobs)} set")

    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BINARY), "--selftest"], cwd=ROOT).returncode)

    # The binary writes its manifest and trace into .bench_out/ under its
    # working directory, the repository root.
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1]:
        sys.stdout.write(proc.stdout)
        fail(f"the benchmark binary exited with code {proc.returncode}")
    check_result(lines[-1], args.trace == 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
