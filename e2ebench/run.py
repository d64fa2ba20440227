#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark program into .bench_build/e2ebench (later calls
only rebuild what changed); the build log goes to
.bench_build/e2ebench-build.log. The program's stdout is passed through, so
the last line is the result JSON. See e2ebench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
BUILD_LOG = os.path.join(BUILD_ROOT, "e2ebench-build.log")


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "e2ebench"],
    ]
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(BUILD_LOG) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("e2ebench: build failed (%s)\n" % " ".join(step))
                sys.exit(2)


def main():
    build()
    program = os.path.join(BUILD_DIR, "e2ebench")
    sys.exit(subprocess.run([program] + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
