#!/usr/bin/env python3
"""The perf record: labelled benchmark-of-record results, gated (DESIGN.md §14.2).

    python3 tools/bench_trajectory.py record LABEL WORKLOAD
    python3 tools/bench_trajectory.py check FILE

`record` runs `benchmark/run.py --workload WORKLOAD --seed 1 --seconds 20
--trace 0` from the repository root three times, refuses a result that is not
correct or has a failed operation, and appends the labelled per-metric median,
the run manifest and the host (CPU model name, nproc) to
BENCH_trajectory.json at the root. One run's host times spread wider than
some of BENCHMARK.json's bounds; the median of three is what gets gated.

`check` gates every entry of FILE, end-to-end metric by metric, against the
best earlier value among the entries with the same fingerprint (workload,
host, nproc, workers, build type), within BENCHMARK.json's `better` and
`bound`. Entries with different fingerprints are never compared.

Exit codes: 0 clean, 1 a regression, 2 a usage error, a refused run, or
malformed or unreadable input (never conflated with a regression).
"""
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"
FINGERPRINT = ("workload", "host", "nproc", "workers", "build_type")
FIELDS = {"label", "git_sha", "source_digest", "digest", "metrics", *FINGERPRINT}
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
        if not isinstance(e, dict) or set(e) != FIELDS or not isinstance(e["metrics"], dict):
            raise Refused(f"{path}: entry {i} does not have exactly the fields {sorted(FIELDS)}")
        if set(e["metrics"]) != set(spec):
            raise Refused(f"{path}: entry {i} ({e['label']}) metric set differs from the "
                          f"end-to-end set by {sorted(set(e['metrics']) ^ set(spec))}")
        for name, v in e["metrics"].items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise Refused(f"{path}: entry {i} ({e['label']}) {name} is not a finite number")
    return entries


def check(path):
    spec = end_to_end()
    best = {}  # fingerprint -> {metric: (value, label)}
    regressions = 0
    for e in load(path, spec):
        prior = best.setdefault(tuple(e[k] for k in FINGERPRINT), {})
        for name, (better, bound) in spec.items():
            v = e["metrics"][name]
            sign = 1 if better == "higher" else -1
            if name in prior:
                b, label = prior[name]
                regressed = sign * (v - b) < -bound * abs(b) if b else sign * v < 0
                regressions += regressed
                print(f"{'REGRESSED' if regressed else 'ok':9} {e['workload']:13} {e['label']:8} "
                      f"{name:20} {v:.6g} vs best {b:.6g} ({label}), bound {bound}")
            if name not in prior or sign * (v - prior[name][0]) > 0:
                prior[name] = (v, e["label"])
    print(f"{regressions} regression(s) in {path}")
    return 1 if regressions else 0


def run_benchmark(workload):
    """The benchmark's stdout lines; run.py prints nothing on a failed run."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "20", "--trace", "0"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout.splitlines()


def run_once(workload):
    lines = run_benchmark(workload)
    try:
        result = json.loads(lines[-1])
        manifest = json.loads(next(l for l in lines if l.startswith("manifest "))[9:])
        digest = next(l for l in lines if l.startswith("digest ")).split()[-1]
    except (IndexError, StopIteration, json.JSONDecodeError) as e:
        raise Refused(f"{workload}: the benchmark printed no result") from e
    if result.get("correct") is not True or result.get("failed") != 0:
        raise Refused(f"{workload}: refusing a result that is not correct with 0 failed")
    return result, manifest, digest


def record(label, workload):
    runs = [run_once(workload) for _ in range(RUNS)]
    _, manifest, digest = runs[0]
    if any(d != digest for _, _, d in runs):
        raise Refused(f"{workload}: same-seed runs gave different digests")
    cpu = [l.split(":", 1)[1].strip() for l in Path("/proc/cpuinfo").read_text().splitlines()
           if l.startswith("model name")]
    config = manifest["config"]
    entry = {"label": label, "workload": workload, "host": cpu[0] if cpu else "unknown",
             "nproc": int(config["nproc"]), "workers": int(config["workers"]),
             "build_type": config["build_type"], "git_sha": manifest["git_sha"],
             "source_digest": config["source_digest"], "digest": digest,
             "metrics": {k: statistics.median(r["metrics"][k]["value"] for r, _, _ in runs)
                         for k in runs[0][0]["metrics"]}}
    entries = load(TRAJECTORY, end_to_end()) if TRAJECTORY.exists() else []
    TRAJECTORY.write_text(json.dumps(entries + [entry], indent=1) + "\n")
    print(f"recorded {label} {workload} in {TRAJECTORY.name}")
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
