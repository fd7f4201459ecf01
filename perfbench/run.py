#!/usr/bin/env python3
"""Build and run Cooper's benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload clear-2k --seed 1 --seconds 30 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
the repository's packages from source. Every build product - the Go build
cache, temporary files and the binary - lands in .bench_build/ at the
repository root, so a run reads and writes nothing outside the checkout.
Arguments are passed to the binary unchanged; its last line of standard
output is the JSON result. The exit code is the binary's, or 2 when the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# A run ends well inside the 180 s a run may take; this only stops a
# hung binary.
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    # XDG_CONFIG_HOME holds the go command's own settings and local
    # telemetry counters, which would otherwise land in the home directory.
    for name, sub in (
        ("GOCACHE", "go-cache"),
        ("GOPATH", "go-path"),
        ("GOTMPDIR", "go-tmp"),
        ("XDG_CONFIG_HOME", "go-config"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-buildvcs=false", GOWORK="off")
    return env


def main():
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE,
        env=go_env(),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
