#!/usr/bin/env python3
"""Run one E-STREAMHUB benchmark workload and print its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. On first use it builds this directory's
CMake package (which compiles the sources in ../src) in
.bench_build/perfbench. It then runs the workload, checks the run's
fingerprint against earlier runs of the same binary, workload and seed in
this checkout, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. Build output and a readable summary go to
standard error. The exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def check_fingerprint(binary, workload, seed, fingerprint):
    """The same binary, workload and seed must give the same fingerprint, run
    after run. A rebuilt binary starts afresh: a change to the program may
    change what it simulates."""
    store = BUILD / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()
    key = f"{digest}/{workload}/{seed}"
    if key in known:
        if known[key] != fingerprint:
            log(f"fingerprint {fingerprint} differs from an earlier run's "
                f"{known[key]} ({key})")
            return False
        return True
    known[key] = fingerprint
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    tmp.replace(store)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    report = BUILD / "reports" / f"{args.workload}-{args.seed}-{args.trace}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    report.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--report", str(report)]
    if args.trace:
        spans = BUILD / "trace" / f"{args.workload}.spans"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if not report.exists():
        log(f"perfbench exited with {proc.returncode} and wrote no report")
        return 1
    result = json.loads(report.read_text())

    correct = bool(result["correct"]) and proc.returncode == 0
    correct = check_fingerprint(binary, args.workload, args.seed,
                                result["fingerprint"]) and correct

    section = "per_layer" if args.trace else "end_to_end"
    for name, m in result[section].items():
        log(f"{args.workload:14s} {name:26s} {m['value']:>16.6g} {m['unit']}")
    missing = [m["name"] for m in wanted if m["name"] not in result[section]]
    if missing:
        log(f"report lacks metrics {missing}")
        return 1
    metrics = {m["name"]: result[section][m["name"]] for m in wanted}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
