#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

The first call configures and builds perfbench/ (which compiles the library
from the repository's own CMakeLists.txt) into $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild incrementally. Build output goes to
<build dir>/perfbench-build.log so that the benchmark's last stdout line is
always its result object. Result and trace files go to .bench_out/.

--compare prints the end-to-end deltas of two result files and refuses to
compare timings taken on different SIMD backends, thread counts, core
counts or build types.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build the benchmark program; returns the binary's path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "api", "session.hpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("library sources not found (%s is missing); run from a full checkout" % needed)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, "perfbench")


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for key in ("workload", "nproc", "engine_threads", "simd_backend", "build_type"):
        if a["host"].get(key) != b["host"].get(key):
            fail("refusing to compare: %s differs (%r vs %r)"
                 % (key, a["host"].get(key), b["host"].get(key)))
    print("%-18s %14s %14s %9s" % ("metric", "A", "B", "B/A-1"))
    for name, ma in a["end_to_end"].items():
        mb = b["end_to_end"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        delta = "%+8.2f%%" % (100.0 * (vb / va - 1.0)) if va else "      n/a"
        print("%-18s %14.6g %14.6g %s %s" % (name, va, vb, delta, ma["unit"]))
    return 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            fail("usage: run.py --compare RESULT_A.json RESULT_B.json")
        return compare(argv[1], argv[2])
    binary = build()
    if argv[:1] == ["--self-test"]:
        return subprocess.run([binary, "--self-test"]).returncode
    out_dir = os.path.join(ROOT, ".bench_out")
    return subprocess.run([binary] + argv + ["--out", out_dir], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
