#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload build|execute|online --seed N [--seconds 25] --trace 0|1

Every argument is passed on to perfbench/main.exe (see perfbench/README.md).
The build's output goes to standard error, so the last line of standard
output is the benchmark's JSON result.  Exits non-zero, without a result,
when the repository sources are missing or the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ not found)",
              file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    try:
        build = subprocess.run(["dune", "build", "--cache=disabled", "--root", ".",
                                "perfbench/main.exe"],
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    # A session of its own, so that a timeout also stops the set-up
    # child processes main.exe starts.
    run = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
