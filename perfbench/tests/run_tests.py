#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/run_tests.py

1. Builds and runs perfbench_tests: the percentile/sample-count rule and
   bit-identity of the layer-by-layer replays at a small grid.
2. Runs every workload of BENCHMARK.json briefly, untraced and traced, and
   checks that each exits 0 with a correct result whose metric names and
   units are exactly the declared end_to_end / per_layer lists.
3. Checks that a tree holding only BENCHMARK.json and the benchmark's own
   directory fails cleanly: non-zero exit, no result line.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def run_unit_tests():
    out = run.build(targets=("perfbench", "perfbench_tests"))
    return subprocess.run([os.path.join(out, "perfbench_tests")]).returncode


def run_workloads():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    failures = 0
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload["name"], "--seed", "1",
                 "--seconds", "1", "--trace", trace],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            problems = [] if lines else ["no output"]
            if lines:
                problems += run.check_result(lines[-1], trace == "1")
                if not json.loads(lines[-1]).get("correct"):
                    problems.append("result is not correct")
            if proc.returncode != 0:
                problems.append("exit code %d" % proc.returncode)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print("%s --trace %s: %s" % (workload["name"], trace, status))
            failures += bool(problems)
    return failures


def run_bare_tree():
    bare = os.path.join(run.build_dir(), "bare-tree")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(SPEC_PATH, bare)
    name = os.path.basename(run.HERE)
    shutil.copytree(run.HERE, os.path.join(bare, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join(name, "run.py"), "--workload",
         "refactor", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print("bare tree: %s" % ("ok" if ok else "FAILED: exit %d, stdout %r" %
                             (proc.returncode, proc.stdout[-200:])))
    return 0 if ok else 1


def main():
    failures = 0
    failures += run_unit_tests() != 0
    failures += run_workloads()
    failures += run_bare_tree()
    print("perfbench tests: %s" % ("passed" if not failures else
                                   "%d failed" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
