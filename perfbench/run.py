#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload emulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. All arguments are passed on to the
benchmark executable (perfbench/main.ml). The last line of standard
output is the result object; build output goes to standard error. If the
build fails (for instance when the repository's libraries are absent),
the script exits with status 2 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    # No shared build cache, and git (asked for the revision recorded with
    # each result) does not look above the checkout: the run reads and
    # writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled",
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cmd = [exe,
           "--expected", os.path.join(HERE, "sim_expected.txt"),
           "--trace-dir", os.path.join(ROOT, ".perfbench")] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
