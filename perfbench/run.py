#!/usr/bin/env python3
"""Build and run the nxdlib end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <sie-ingest|resolve-nx|honeypot-http> \
        --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/ (which builds the libraries under src/) in Release mode
into .bench_build/, runs one workload in one process, checks the result line
against BENCHMARK.json, and prints it as the last line of standard output.
Build output and diagnostics go to standard error.  The exit status is the
benchmark's: 0 when every correctness gate passed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
SPANS_DIR = BUILD_ROOT / "spans"
WORKLOADS = ("sie-ingest", "resolve-nx", "honeypot-http")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_step(argv):
    step = subprocess.run([str(a) for a in argv], stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail(f"build step failed: {' '.join(str(a) for a in argv)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no nxdlib sources at ./src; run from the repository root")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = max(1, min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    return BUILD_DIR / "perfbench"


def source_id():
    """The git commit when there is one, and a digest of the benchmarked sources."""
    commit = "none"
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result line has the wrong keys")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        fail("the reported metrics do not match BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    work_dir = BUILD_ROOT / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    argv = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--work-dir", str(work_dir), "--spans-dir", str(SPANS_DIR),
            "--commit", source_id()]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with status {proc.returncode}",
             proc.returncode or 2)
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
