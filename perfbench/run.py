#!/usr/bin/env python3
"""Build and run the psched benchmark program for one workload.

Usage (from the root of a psched checkout):

    python3 perfbench/run.py --workload portfolio-kth --seed 1 --seconds 35 --trace 0

Builds perfbench/ (and the psched library it links) with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset, runs it, saves the result with its provenance under
<build dir>/results/, and prints its output. The last stdout line is the
result JSON. For the default seed in perfbench/manifest.json the program
also checks the output digest recorded there.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "psched_perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed, see " + log_path)
    return os.path.join(out, "psched_perfbench")


def commit_id():
    """The git commit when the checkout is a repository, else a source hash."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail("no psched sources next to perfbench/; run from a psched checkout")
    with open(os.path.join(HERE, "manifest.json")) as f:
        manifest = json.load(f)
    if args.workload not in manifest["workloads"]:
        fail(f"unknown workload {args.workload!r}")

    program = build(build_dir())
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id()]
    if args.seed == manifest["default_seed"]:
        command += ["--expect-digest", manifest["workloads"][args.workload]["digest"]]
    run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"psched_perfbench exited with {run.returncode}")
    result = json.loads(lines[-1])
    provenance = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    provenance["run_seconds"] = args.seconds
    provenance["trace"] = args.trace

    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
