#!/usr/bin/env python3
"""Build and run the end-to-end cuisine benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload paper --seed 1 --seconds 16 --trace 0

Builds the repository's libraries and the benchmark driver from source into
.bench_build/ (CARGO_TARGET_DIR, when set, names that directory), runs the
driver, and checks that its last stdout line reports exactly the metrics
BENCHMARK.json lists for the chosen trace mode, with the listed units. The
driver's output, including that last JSON line, is passed through. Exits
non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "long")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    name = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, name) if not os.path.isabs(name) else name


def run_quiet(cmd, timeout):
    """Runs a build step, echoing its output to stderr only on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        fail(f"build step failed: {' '.join(cmd)}")


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "model.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} next to e2ebench/: nothing to build")
    out = os.path.join(build_dir(), "e2ebench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", out, "-j", "4"], BUILD_TIMEOUT_S)
    return os.path.join(out, "e2ebench")


def source_stamp():
    """Git commit when available, plus a digest of the built sources."""
    sha = "none"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return sha, digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    sha, digest = source_stamp()
    print(f"# source {{\"git_sha\": \"{sha}\", \"src_digest\": \"{digest}\"}}",
          flush=True)
    scratch = os.path.join(build_dir(), f"run-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{")
                                   else lines) + "\n")
        fail(f"benchmark exited with code {done.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, unexpected "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(n for n in got if n in want and got[n] != want[n])}")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
