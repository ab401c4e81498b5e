#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <approx_large|sweep_certify|serve_mixed> \
        --seed <u64> --seconds <s> --trace <0|1> [--size full|tiny]

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build); the build log goes to stderr, so stdout carries
only the benchmark's own lines, the last of which is the result object.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("approx_large", "sweep_certify", "serve_mixed")
USAGE = __doc__.strip().splitlines()[2:4]
# The benchmark itself stays well under this; it only bounds a hang.
RUN_TIMEOUT_S = 170


def valid(argv):
    flags = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or len(flags) != len(argv) // 2:
        return False
    allowed = {"--workload", "--seed", "--seconds", "--trace", "--size"}
    required = allowed - {"--size"}
    if not required <= flags.keys() <= allowed:
        return False
    return (
        flags["--workload"] in WORKLOADS
        and flags["--seed"].isdigit()
        and flags["--trace"] in ("0", "1")
        and flags.get("--size", "full") in ("full", "tiny")
    )


def main():
    argv = sys.argv[1:]
    if not valid(argv):
        print("usage:\n" + "\n".join(USAGE), file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Write back what the build left dirty, so its writeback does not
    # land on the measured cache writes and fsyncs of sweep_certify.
    os.sync()
    binary = os.path.join(ROOT, target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + argv, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
