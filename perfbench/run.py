#!/usr/bin/env python3
"""Builds and runs the mgardp end-to-end benchmark.

    python3 perfbench/run.py --workload refactor|retrieve|session-ladder \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the benchmark under $CARGO_TARGET_DIR (default .bench_build);
later calls rebuild incrementally. Build output goes to stderr; stdout
carries the benchmark's report line and, last, the one-line JSON result,
whose metric names and units are checked against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build(targets=("perfbench",)):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--parallel", str(os.cpu_count() or 1),
         "--target", *targets],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if (git.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_result(line, trace):
    """Returns a list of mismatches between the result line and the spec."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not a JSON result"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    declared = declared_metrics(trace)
    for name in sorted(set(declared) | set(printed)):
        if name not in printed:
            problems.append("metric %s is declared but not printed" % name)
        elif name not in declared:
            problems.append("metric %s is printed but not declared" % name)
        elif printed[name] != declared[name]:
            problems.append("metric %s has unit %s, declared %s" %
                            (name, printed[name], declared[name]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    lines = proc.stdout.splitlines()
    if not lines:
        print("perfbench: benchmark printed nothing (exit %d)" %
              proc.returncode, file=sys.stderr)
        return proc.returncode or 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    problems = check_result(lines[-1], args.trace == "1")
    for p in problems:
        print("perfbench: %s" % p, file=sys.stderr)
    if problems:
        return 6
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
