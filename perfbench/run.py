#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload elect --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list-metrics

Run from the root of a source tree. The script builds the benchmark
executable (perfbench/main.exe) from source with dune, then runs it with
the given arguments and passes its output and exit code through. The
last line of standard output is the JSON result. Without the library
sources next to it (lib/ and dune-project), it exits with code 2 and
prints no result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of the source tree "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
