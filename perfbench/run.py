#!/usr/bin/env python3
"""Build the ACACIA simulator benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <city|city-sharded|loaded> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --verify

The benchmark is the Rust package next to this file; it builds against
the repository's crates into $CARGO_TARGET_DIR (default: .bench_build at
the repository root). Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "acacia-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
