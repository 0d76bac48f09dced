#!/usr/bin/env python3
"""Entry point of the LACO benchmark.

    python3 lacobench/run.py --workload laco_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the library from source and the
benchmark binary into .bench_build/lacobench (Release), verifies the
committed model set against its checksums, runs one workload, and passes
the binary's output through: its last line is the JSON result. The run
record (thread counts, commit, model-set checksum, calibration spins,
every figure, and the traced run's spans) is written under
.bench_build/results/. Exits nonzero when the build, the model-set check
or any correctness check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "lacobench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
MODELSET_DIR = BENCH_DIR / "modelset"
WORKLOADS = ("laco_small", "laco_large", "train", "serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"lacobench: {message}", file=sys.stderr)
    sys.exit(1)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_modelset():
    """Checks every model-set file against SHA256SUMS; returns one digest
    over the sums file that names the whole set."""
    sums = MODELSET_DIR / "SHA256SUMS"
    if not sums.is_file():
        fail(f"missing {sums}")
    for line in sums.read_text().splitlines():
        digest, name = line.split()
        path = MODELSET_DIR / name
        if not path.is_file() or sha256(path) != digest:
            fail(f"model set file {name} is missing or does not match SHA256SUMS")
    return sha256(sums)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the library sources under test."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every time is cheap once cached, and recovers from a
    # configure step that failed before.
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "lacobench", "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    return BUILD_DIR / "lacobench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    modelset_id = verify_modelset()
    binary = build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--models", str(MODELSET_DIR), "--record", str(record),
           "--commit", source_id(), "--modelset-sha256", modelset_id]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
