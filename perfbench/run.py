"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --golden

Run from the root of the repository.  The benchmark (perfbench/main.ml) is
compiled with dune into .bench_build, with dune's shared cache off so
nothing is written outside the tree, and then run with the same
arguments.  Its exit code is this script's; its last line of standard
output is the JSON result.  When the tree lacks the library sources
(lib/, dune-project), or the build fails, the script exits non-zero
without running anything.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "-j", "2", TARGET]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        sys.exit("perfbench: dune not found on PATH")
    if done.returncode != 0:
        sys.exit("perfbench: build failed (%d)" % done.returncode)


def main():
    if not os.path.isdir("lib") or not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the repository root (no lib/ here)")
    build()
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    done = subprocess.run([exe] + sys.argv[1:])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
