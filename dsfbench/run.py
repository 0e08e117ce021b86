#!/usr/bin/env python3
"""Builds the libdsf benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 dsfbench/run.py --workload uniform --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build), results and
spans to <build dir>/out. Build output goes to stderr; stdout is the
benchmark's own, ending with its one-line JSON summary. Exits non-zero
without a summary when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if subprocess.call(configure, stdout=sys.stderr) != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", build_dir, "--target", "dsfbench",
         "--parallel", jobs], stdout=sys.stderr) == 0


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        print("dsfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(build_dir, "out")]
    sys.stdout.flush()
    return subprocess.call([os.path.join(build_dir, "dsfbench")] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
