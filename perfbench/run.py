#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census32_hd6 --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary, which parses them
strictly (see perfbench/README.md). The build goes to $CARGO_TARGET_DIR,
or perfbench/target when it is unset; build output goes to standard
error, so the last line of standard output is the benchmark's result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    # Replace this process: the benchmark is then the only process left.
    os.execve(exe, [exe] + sys.argv[1:], env)
    return 1


if __name__ == "__main__":
    sys.exit(main())
