#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfsuite/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfsuite/main.exe
with dune (build output goes to stderr, the build stays under _build/)
and runs it with the same arguments; the program's standard output,
whose last line is the JSON result, passes through unchanged. It exits
with the program's code, or non-zero without a result when the checkout
cannot be built.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("run.py: %s holds no dune project with lib/; nothing to build"
              % ROOT, file=sys.stderr)
        return 2
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfsuite/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfsuite", "main.exe")
    sys.stdout.flush()
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
