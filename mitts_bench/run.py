#!/usr/bin/env python3
"""Build mitts_bench from this checkout's sources, then run it.

    python3 mitts_bench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 mitts_bench/run.py            # every workload, full set

Configures and builds (incrementally) the mitts_bench package
into .bench_build/ at the checkout root, then runs the benchmark with
the same arguments. Build output goes to stderr, so the benchmark's
stdout, whose last line is its JSON result in measure mode, passes
through untouched. Exits non-zero, printing no result, if the build
fails (for instance when the simulator sources are missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    def step(cmd):
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True)

    step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "--target", "mitts_bench",
          "-j", jobs])


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD, "mitts_bench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
