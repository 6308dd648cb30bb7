#!/usr/bin/env python3
"""The perf record: labelled benchmark-of-record results, gated (DESIGN.md §14.2).

    python3 tools/bench_trajectory.py record LABEL WORKLOAD
    python3 tools/bench_trajectory.py check FILE

`record` runs `benchmark/run.py --workload WORKLOAD --seed 1 --seconds 20
--trace 0` from the repository root three times, refuses a result that is not
correct or has a failed operation, and appends the labelled per-metric median,
the run manifest (with its SIMD level and tenant-lane count) and the host
(CPU model name, nproc) to BENCH_trajectory.json at the root. One run's host
times spread wider than some of BENCHMARK.json's bounds; the median of three
is what gets gated. Each run's hypervisor steal (the `cpu` line's steal
column of /proc/stat, before and after) is stored and printed beside it, so
a wall-time move can be read against host noise; it is not gated.

`check` gates every entry of FILE, end-to-end metric by metric, against the
best earlier value among the entries with the same fingerprint (workload,
host, nproc, workers, build type, SIMD level, lanes), within BENCHMARK.json's
`better` and `bound`. Entries with different fingerprints are never compared.
An entry recorded before the SIMD level and lanes were stored lacks them, and
a field an entry lacks matches any value: such an entry is gated as before.

Exit codes: 0 clean, 1 a regression, 2 a usage error, a refused run, or
malformed or unreadable input (never conflated with a regression).
"""
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"
FINGERPRINT = ("workload", "host", "nproc", "workers", "build_type")
# Fingerprint fields that older entries lack; a missing one matches any value.
LATER_FINGERPRINT = ("simd", "lanes")
FIELDS = {"label", "git_sha", "source_digest", "digest", "metrics", *FINGERPRINT}
OPTIONAL = {*LATER_FINGERPRINT, "steal_s"}
RUNS = 3


class Refused(Exception):
    pass


def end_to_end():
    """{metric: (better, bound)} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def load(path, spec):
    try:
        entries = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise Refused(f"{path}: {e}") from e
    if not isinstance(entries, list):
        raise Refused(f"{path}: expected a JSON list of entries")
    for i, e in enumerate(entries):
        if (not isinstance(e, dict) or not FIELDS <= set(e) <= FIELDS | OPTIONAL
                or not isinstance(e["metrics"], dict)):
            raise Refused(f"{path}: entry {i} does not have the fields {sorted(FIELDS)}, "
                          f"plus at most {sorted(OPTIONAL)}")
        if not isinstance(e.get("simd", ""), str) or not isinstance(e.get("lanes", 0), int):
            raise Refused(f"{path}: entry {i} has a malformed simd or lanes field")
        steal = e.get("steal_s", [])
        if not isinstance(steal, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in steal):
            raise Refused(f"{path}: entry {i} steal_s is not a list of numbers")
        if set(e["metrics"]) != set(spec):
            raise Refused(f"{path}: entry {i} ({e['label']}) metric set differs from the "
                          f"end-to-end set by {sorted(set(e['metrics']) ^ set(spec))}")
        for name, v in e["metrics"].items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise Refused(f"{path}: entry {i} ({e['label']}) {name} is not a finite number")
    return entries


def comparable(a, b):
    """Same fingerprint; a later field that either entry lacks matches."""
    return (all(a[k] == b[k] for k in FINGERPRINT) and
            all(k not in a or k not in b or a[k] == b[k] for k in LATER_FINGERPRINT))


def check(path):
    spec = end_to_end()
    entries = load(path, spec)
    regressions = 0
    for i, e in enumerate(entries):
        prior = [p for p in entries[:i] if comparable(p, e)]
        for name, (better, bound) in spec.items():
            if not prior:
                break
            v = e["metrics"][name]
            sign = 1 if better == "higher" else -1
            best = max(prior, key=lambda p: sign * p["metrics"][name])
            b = best["metrics"][name]
            regressed = sign * (v - b) < -bound * abs(b) if b else sign * v < 0
            regressions += regressed
            print(f"{'REGRESSED' if regressed else 'ok':9} {e['workload']:13} {e['label']:8} "
                  f"{name:20} {v:.6g} vs best {b:.6g} ({best['label']}), bound {bound}")
    print(f"{regressions} regression(s) in {path}")
    return 1 if regressions else 0


def run_benchmark(workload):
    """The benchmark's stdout lines; run.py prints nothing on a failed run."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "20", "--trace", "0"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout.splitlines()


def steal_seconds(stat_text, ticks_per_s):
    """Total hypervisor steal in seconds from /proc/stat text: the eighth
    value of the aggregate `cpu` line, in clock ticks."""
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            if len(fields) < 9:
                raise Refused("/proc/stat: the cpu line has no steal column")
            return int(fields[8]) / ticks_per_s
    raise Refused("/proc/stat: no aggregate cpu line")


def host_steal():
    """The host's steal so far, in seconds, or None where /proc/stat is absent."""
    try:
        return steal_seconds(Path("/proc/stat").read_text(), os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError):
        return None


def run_once(workload):
    steal0 = host_steal()
    lines = run_benchmark(workload)
    steal1 = host_steal()
    try:
        result = json.loads(lines[-1])
        manifest = json.loads(next(l for l in lines if l.startswith("manifest "))[9:])
        digest = next(l for l in lines if l.startswith("digest ")).split()[-1]
    except (IndexError, StopIteration, json.JSONDecodeError) as e:
        raise Refused(f"{workload}: the benchmark printed no result") from e
    if result.get("correct") is not True or result.get("failed") != 0:
        raise Refused(f"{workload}: refusing a result that is not correct with 0 failed")
    steal = None if steal0 is None or steal1 is None else round(steal1 - steal0, 2)
    print(f"{workload}: sim_s_per_wall_s {result['metrics']['sim_s_per_wall_s']['value']:.6g}, "
          f"steal {steal} s")
    return result, manifest, digest, steal


def record(label, workload):
    runs = [run_once(workload) for _ in range(RUNS)]
    _, manifest, digest, _ = runs[0]
    if any(d != digest for _, _, d, _ in runs):
        raise Refused(f"{workload}: same-seed runs gave different digests")
    cpu = [l.split(":", 1)[1].strip() for l in Path("/proc/cpuinfo").read_text().splitlines()
           if l.startswith("model name")]
    config = manifest["config"]
    entry = {"label": label, "workload": workload, "host": cpu[0] if cpu else "unknown",
             "nproc": int(config["nproc"]), "workers": int(config["workers"]),
             "build_type": config["build_type"], "git_sha": manifest["git_sha"],
             "source_digest": config["source_digest"], "digest": digest,
             "steal_s": [st for *_, st in runs if st is not None],
             "metrics": {k: statistics.median(r["metrics"][k]["value"] for r, *_ in runs)
                         for k in runs[0][0]["metrics"]}}
    if "simd" in manifest:
        entry["simd"] = manifest["simd"]
    if "lanes" in manifest:
        entry["lanes"] = int(manifest["lanes"])
    entries = load(TRAJECTORY, end_to_end()) if TRAJECTORY.exists() else []
    TRAJECTORY.write_text(json.dumps(entries + [entry], indent=1) + "\n")
    print(f"recorded {label} {workload} in {TRAJECTORY.name}, steal per run {entry['steal_s']} s")
    return 0


def main(argv):
    try:
        if len(argv) == 3 and argv[0] == "record":
            return record(argv[1], argv[2])
        if len(argv) == 2 and argv[0] == "check":
            return check(argv[1])
    except Refused as e:
        print(f"bench_trajectory: {e}", file=sys.stderr)
        return 2
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
